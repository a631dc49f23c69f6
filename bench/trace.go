package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was made; Parent is the index of the span
// that caused this one (-1 for a root); spans of one operation share
// Request.
type Span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// recorder keeps a traced run's spans in memory until the run ends. The
// spans are taken from the benchmark's side of each layer boundary: around
// calls to a layer's public functions, and from the durations the daemons
// report in their span headers.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index, for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent, request int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
		Parent: parent, Request: request,
	})
	return len(r.spans) - 1
}

// placedSpan is where addHeader put one top-level span of a header.
type placedSpan struct {
	idx        int
	start, end time.Time
}

// addHeader lays the top-level spans of a daemon's span header end to end
// from start, as children of parent, and returns where each went. The
// header carries durations only, so the starts are reconstructed; a dotted
// sub-span (backend.cnn) becomes a child of the span it details.
func (r *recorder) addHeader(prefix string, spans []obs.Span, start time.Time, parent, request int) map[string]placedSpan {
	at := start
	top := map[string]placedSpan{}
	for _, s := range spans {
		if s.Sub() {
			continue
		}
		end := at.Add(s.Dur)
		top[s.Name] = placedSpan{r.add(prefix+s.Name, at, end, parent, request), at, end}
		at = end
	}
	for _, s := range spans {
		if !s.Sub() {
			continue
		}
		owner, _, _ := strings.Cut(s.Name, ".")
		if o, ok := top[owner]; ok {
			r.add(prefix+s.Name, o.start, o.start.Add(s.Dur), o.idx, request)
		}
	}
	return top
}

// durations returns the length of every span called name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover (overlapping children are not counted twice).
func selfTimes(spans []Span) []time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[i]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time per span name.
func (r *recorder) selfByName() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]time.Duration{}
	for i, d := range selfTimes(r.spans) {
		out[r.spans[i].Name] += d
	}
	return out
}

// write dumps the spans as JSON; called once, when the traced run ends.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
