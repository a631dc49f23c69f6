package main

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []Span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 130, Parent: 0}, // runs past its parent
		{Name: "a.inner", Start: 10, End: 25, Parent: 1},
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	want := []time.Duration{
		100 - (30 + 20 + 10), // a covers 10–40, b adds 40–60, c adds 90–100
		30 - 15,
		30,
		40,
		15,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSpanHeaderBecomesChildSpans(t *testing.T) {
	// What hybridnetd sends for one request.
	header := "admission;dur=0.200, queue;dur=0.010, batch;dur=2.000, backend;dur=1.000, " +
		"backend.reliable;dur=0.000, backend.qualifier;dur=0.000, backend.cnn;dur=1.500, deliver;dur=0.005"
	parsed, err := obs.ParseSpans(header)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	start := rec.epoch.Add(time.Millisecond)
	root := rec.add("client.request", rec.epoch, rec.epoch.Add(5*time.Millisecond), -1, 7)
	top := rec.addHeader("hybridnetd.", parsed, start, root, 7)

	if len(top) != 5 {
		t.Fatalf("%d top-level spans placed, want 5", len(top))
	}
	// Top-level spans tile the interval from start, in header order.
	at := start
	for _, name := range []string{"admission", "queue", "batch", "backend", "deliver"} {
		p, ok := top[name]
		if !ok {
			t.Fatalf("no %s span", name)
		}
		if !p.start.Equal(at) {
			t.Errorf("%s starts %v after the epoch, want %v", name, p.start.Sub(rec.epoch), at.Sub(rec.epoch))
		}
		if s := rec.spans[p.idx]; s.Parent != root || s.Request != 7 || s.Name != "hybridnetd."+name {
			t.Errorf("%s recorded as %+v", name, s)
		}
		at = p.end
	}
	if want := start.Add(3215 * time.Microsecond); !at.Equal(want) {
		t.Errorf("spans end %v after the epoch, want %v", at.Sub(rec.epoch), want.Sub(rec.epoch))
	}
	// Sub-spans hang off the span they detail and start where it starts.
	var cnn *Span
	for i := range rec.spans {
		if rec.spans[i].Name == "hybridnetd.backend.cnn" {
			cnn = &rec.spans[i]
		}
	}
	if cnn == nil {
		t.Fatal("no backend.cnn sub-span")
	}
	backend := top["backend"]
	if cnn.Parent != backend.idx || cnn.Start != int64(backend.start.Sub(rec.epoch)) {
		t.Errorf("backend.cnn = %+v, want a child of span %d starting with it", *cnn, backend.idx)
	}
	// A sub-span reporting summed per-worker time longer than its parent
	// (1.5 ms in a 1 ms backend span) leaves the parent no self time, not a
	// negative one.
	self := rec.selfByName()
	if self["hybridnetd.backend"] != 0 {
		t.Errorf("backend self time %v, want 0", self["hybridnetd.backend"])
	}
	if self["hybridnetd.batch"] != 2*time.Millisecond {
		t.Errorf("batch self time %v, want 2ms", self["hybridnetd.batch"])
	}
	if want := 5*time.Millisecond - 3215*time.Microsecond; self["client.request"] != want {
		t.Errorf("client self time %v, want %v", self["client.request"], want)
	}
	if ds := rec.durations("hybridnetd.batch"); len(ds) != 1 || ds[0] != 2*time.Millisecond {
		t.Errorf("durations(batch) = %v", ds)
	}
}
