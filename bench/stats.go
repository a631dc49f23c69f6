package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/mathx"
	"repro/internal/serve"
)

// stat is a reported value with the extremes of what it summarises beside
// it: the repeats of a probe, or the segments of a window.
type stat struct {
	value, min, max float64
	n               int
}

// beyond is how many of n samples lie strictly above percentile p under
// serve.NearestRank, the rule every percentile here follows. The guide wants
// at least ten before a tail is reported.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return n - rank
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median interpolates between the two middle values of an even-sized
// sample, as Python's statistics.median does; 0 for an empty one.
func median(xs []float64) float64 {
	m, _ := mathx.Quantile(xs, 0.5) // fails only on an empty sample
	return m
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the driver uses to judge run-to-run spread. It needs two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// summarize reduces repeated measurements to their median and extremes.
func summarize(vals []float64) stat {
	if len(vals) == 0 {
		return stat{}
	}
	s := sortedCopy(vals)
	return stat{value: median(s), min: s[0], max: s[len(s)-1], n: len(s)}
}

// op is one timed operation of a workload: a frame, a batch or a request.
type op struct {
	done   time.Duration // completion, as an offset into the timed window
	lat    time.Duration // closed loop: call to return; open loop: due time to reply
	images int
	ok     bool // answered, and the answer matched the oracle
	traced bool // spans were recorded around this operation
}

// numSegments is how many segments a window of the requested length is cut
// into; quietShare is the part of them the end-to-end metrics are taken
// from. See quiet.
const (
	numSegments = 12
	quietShare  = 3 // one in three
)

// window is the record of one timed window. Operations are added as they
// complete, and a segment closes on a completion, never between two: no
// operation is split and a slow workload loses no throughput to where a cut
// falls.
type window struct {
	ops    []op
	segLen time.Duration
	// cpu reads the CPU seconds the workload's processes have used so far;
	// nil leaves the segments' CPU time at zero.
	cpu  func() (float64, error)
	cuts []cut
	next time.Duration // the current segment closes at the first completion from here on
	err  error         // the first failure of cpu
}

// cut closes a segment: ops[:end] had completed by t, having used cpu
// seconds of processor time since the window opened.
type cut struct {
	end int
	t   time.Duration
	cpu float64
}

// newWindow opens a window meant to last d, charging it the CPU time of
// pids; without pids it keeps no CPU account.
func newWindow(d time.Duration, pids []int) *window {
	w := &window{segLen: d / numSegments, next: d / numSegments}
	if len(pids) > 0 {
		base, err := cpuSeconds(pids)
		w.err = err
		w.cpu = func() (float64, error) {
			now, err := cpuSeconds(pids)
			return now - base, err
		}
	}
	return w
}

// add records a completed operation. Callers that complete operations on
// several goroutines hold their own lock around it.
func (w *window) add(o op) {
	w.ops = append(w.ops, o)
	// Segment k closes at the first completion past (k+1)·segLen, so the
	// cuts do not drift and the last one falls where the window ends. An
	// operation that outlasts whole segments leaves them empty and unmade.
	if w.segLen <= 0 || o.done < w.next {
		return
	}
	w.next = (o.done/w.segLen + 1) * w.segLen
	c := cut{end: len(w.ops), t: o.done}
	if w.cpu != nil {
		var err error
		if c.cpu, err = w.cpu(); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.cuts = append(w.cuts, c)
}

func (w *window) attempted() int { return len(w.ops) }

// p50 is the median latency, in milliseconds, of the correct operations
// that were (or were not) traced.
func (w *window) p50(traced bool) float64 {
	var lats []float64
	for _, o := range w.ops {
		if o.ok && o.traced == traced {
			lats = append(lats, ms(o.lat))
		}
	}
	return median(lats)
}

func (w *window) failed() int {
	n := 0
	for _, o := range w.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

func (w *window) images() int { return segment{ops: w.ops}.images() }

// segment is a stretch of a window: the operations that completed in it,
// how long it lasted and the CPU time spent in it.
type segment struct {
	ops  []op
	span time.Duration
	cpu  float64 // seconds
}

// segments returns the closed segments in order. Operations completed after
// the last cut belong to none; they still count as attempted.
func (w *window) segments() []segment {
	segs := make([]segment, 0, len(w.cuts))
	var prev cut
	for _, c := range w.cuts {
		segs = append(segs, segment{ops: w.ops[prev.end:c.end], span: c.t - prev.t, cpu: c.cpu - prev.cpu})
		prev = c
	}
	return segs
}

// latencies returns the latencies of the correct operations, ascending.
func (s segment) latencies() []time.Duration {
	ds := make([]time.Duration, 0, len(s.ops))
	for _, o := range s.ops {
		if o.ok {
			ds = append(ds, o.lat)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

func (s segment) images() int {
	n := 0
	for _, o := range s.ops {
		if o.ok {
			n += o.images
		}
	}
	return n
}

// percentile is the p-th percentile latency of the correct operations, in
// milliseconds; 0 without any.
func (s segment) percentile(p float64) float64 {
	lats := s.latencies()
	if len(lats) == 0 {
		return 0
	}
	return ms(serve.NearestRank(lats, p))
}

func (s segment) throughput() float64 {
	if s.span <= 0 {
		return 0
	}
	return float64(s.images()) / s.span.Seconds()
}

// cpuPerImage is the CPU time per correct image, in milliseconds.
func (s segment) cpuPerImage() float64 {
	if n := s.images(); n > 0 {
		return s.cpu * 1000 / float64(n)
	}
	return 0
}

// sloMet is the share of operations sent that succeeded within limit; a
// failed operation misses.
func (s segment) sloMet(limit time.Duration) float64 {
	if len(s.ops) == 0 {
		return 0
	}
	met := 0
	for _, o := range s.ops {
		if o.ok && o.lat <= limit {
			met++
		}
	}
	return float64(met) / float64(len(s.ops))
}

// quiet pools the third of the segments with the lowest median latency into
// one, the stretch of the window the end-to-end metrics are taken from.
//
// The host shares its processors with other guests. For spells of tens of
// seconds to minutes it runs everything here at about 0.6 of full speed, and
// nothing inside the guest shows it: no steal time is booked, CPU time per
// image rises with the wall clock. A median over the whole window follows
// those spells, and ten runs of one commit then differ by more than any
// change a later commit is likely to make. The spells only ever add time, so
// the fastest third of the window is the best estimate of what the program
// itself costs, and it is what two commits are compared on. Ranking by the
// median, which a handful of slow operations does not move, keeps a
// segment's own tail in the pool. The extremes over all segments are
// reported beside every value.
func quiet(segs []segment) segment {
	order := make([]int, len(segs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return segs[order[a]].percentile(0.5) < segs[order[b]].percentile(0.5)
	})
	keep := (len(segs) + quietShare - 1) / quietShare
	var pool segment
	for _, i := range order[:keep] {
		pool.ops = append(pool.ops, segs[i].ops...)
		pool.span += segs[i].span
		pool.cpu += segs[i].cpu
	}
	return pool
}

// over reports a metric as its value on the pooled quiet segments, with the
// extremes it takes over all segments beside it.
func over(pool segment, segs []segment, f func(segment) float64) stat {
	st := stat{value: f(pool), n: len(pool.ops)}
	for i, s := range segs {
		v := f(s)
		if i == 0 || v < st.min {
			st.min = v
		}
		if i == 0 || v > st.max {
			st.max = v
		}
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p50MS is the median of a set of durations, in milliseconds.
func p50MS(ds []time.Duration) float64 { return pMS(ds, 0.5) }

func pMS(ds []time.Duration, p float64) float64 {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return ms(serve.NearestRank(s, p))
}
