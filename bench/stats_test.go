package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileOfDurations(t *testing.T) {
	var ds []time.Duration
	for i := 10; i >= 1; i-- { // unsorted on purpose
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {1, 10},
	} {
		if got := pMS(ds, c.p); got != c.want {
			t.Errorf("pMS(1..10 ms, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if ds[0] != 10*time.Millisecond {
		t.Error("pMS sorted its argument in place")
	}
	if got := pMS(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The guide reports a tail only with ten samples beyond it; these are the
// sample counts the quiet third of a 26 s window leaves the four workloads.
func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{590, 0.90, 59}, // frame-loop
		{780, 0.90, 78}, // fleet-streams
		{780, 0.99, 7},  // …which is why its tail is not p99
		{25, 0.75, 6},   // alexnet-batch: the note in its runs says so
		{25, 0.90, 2},
		{100, 0.99, 1},
		{0, 0.5, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// mkWindow builds a closed-loop window meant to last d with a fake CPU
// clock that charges every operation its own latency: operation i completes
// at done[i] having taken lat[i].
func mkWindow(d time.Duration, done, lat []time.Duration) *window {
	w := &window{segLen: d / numSegments, next: d / numSegments}
	var used time.Duration
	w.cpu = func() (float64, error) { return used.Seconds(), nil }
	for i := range done {
		used += lat[i]
		w.add(op{done: done[i], lat: lat[i], images: 1, ok: true})
	}
	return w
}

func TestSegmentsCloseOnCompletions(t *testing.T) {
	// A 12 s window, so one-second segments, and operations of 0.4 s: every
	// segment closes on the first completion past a whole second, keeps the
	// operations whole and the cuts do not drift.
	var done, lat []time.Duration
	for at := 400 * time.Millisecond; at <= 12*time.Second; at += 400 * time.Millisecond {
		done, lat = append(done, at), append(lat, 400*time.Millisecond)
	}
	w := mkWindow(12*time.Second, done, lat)
	segs := w.segments()
	if len(segs) != numSegments {
		t.Fatalf("%d segments, want %d", len(segs), numSegments)
	}
	total := 0
	for i, s := range segs {
		total += len(s.ops)
		if n := len(s.ops); n != 2 && n != 3 {
			t.Errorf("segment %d has %d operations, want 2 or 3", i, n)
		}
		if want := time.Duration(len(s.ops)) * 400 * time.Millisecond; s.span != want {
			t.Errorf("segment %d spans %v with %d operations, want %v", i, s.span, len(s.ops), want)
		}
		if got := s.throughput(); math.Abs(got-2.5) > 1e-9 {
			t.Errorf("segment %d: throughput %v, want 2.5/s whatever the cut", i, got)
		}
		if got := s.cpuPerImage(); math.Abs(got-400) > 1e-9 {
			t.Errorf("segment %d: %v ms of CPU per image, want 400", i, got)
		}
	}
	if total != len(done) {
		t.Errorf("segments hold %d operations of %d", total, len(done))
	}
}

func TestOperationLongerThanSegments(t *testing.T) {
	// A 1.2 s window (a smoke run) and operations of 0.35 s: each outlasts
	// three segments, which are then never made.
	var done, lat []time.Duration
	for at := 350 * time.Millisecond; at <= 1400*time.Millisecond; at += 350 * time.Millisecond {
		done, lat = append(done, at), append(lat, 350*time.Millisecond)
	}
	segs := mkWindow(1200*time.Millisecond, done, lat).segments()
	if len(segs) != 4 {
		t.Fatalf("%d segments, want one per operation, 4", len(segs))
	}
	for i, s := range segs {
		if len(s.ops) != 1 || s.span != 350*time.Millisecond {
			t.Errorf("segment %d: %d operations over %v", i, len(s.ops), s.span)
		}
	}
}

func TestQuietThirdIgnoresDisturbedSegments(t *testing.T) {
	// 12 s of operations that take 10 ms, except that the host runs at 0.6
	// of its speed from 2 s to 10 s, and one operation in the quiet part
	// stalls for 50 ms: the stall stays in, the disturbed spell stays out.
	var done, lat []time.Duration
	at := time.Duration(0)
	for n := 0; at < 12*time.Second; n++ {
		l := 10 * time.Millisecond
		if at >= 2*time.Second && at < 10*time.Second {
			l = 17 * time.Millisecond
		}
		if n == 50 {
			l = 50 * time.Millisecond
		}
		at += l
		done, lat = append(done, at), append(lat, l)
	}
	w := mkWindow(12*time.Second, done, lat)
	segs := w.segments()
	pool := quiet(segs)
	if got := pool.percentile(0.5); got != 10 {
		t.Errorf("quiet p50 %v ms, want 10", got)
	}
	if got := pool.percentile(1); got != 50 {
		t.Errorf("quiet maximum %v ms, want the 50 ms stall", got)
	}
	if got := pool.cpuPerImage(); math.Abs(got-10.1) > 0.1 {
		t.Errorf("quiet CPU per image %v ms, want about 10.1", got)
	}
	if got := pool.span; got < 3900*time.Millisecond || got > 4100*time.Millisecond {
		t.Errorf("quiet span %v, want about 4 s, a third of the window", got)
	}
	p50 := over(pool, segs, func(s segment) float64 { return s.percentile(0.5) })
	if p50.value != 10 || p50.min != 10 || p50.max != 17 {
		t.Errorf("p50 %+v, want value 10 min 10 max 17", p50)
	}
	thr := over(pool, segs, segment.throughput)
	if thr.value < 98 || thr.value > 100 || thr.min > 60 {
		t.Errorf("throughput %+v, want about 99/s with a minimum near 59/s", thr)
	}
	if whole := (segment{ops: w.ops}).percentile(0.5); whole != 17 {
		t.Errorf("whole-window p50 %v ms, want 17: the test no longer disturbs most of the window", whole)
	}
}

func TestFewOperations(t *testing.T) {
	w := mkWindow(12*time.Second, []time.Duration{5 * time.Second, 10 * time.Second}, []time.Duration{5 * time.Second, 5 * time.Second})
	segs := w.segments()
	if pool := quiet(segs); len(segs) != 2 || len(pool.ops) != 1 || pool.percentile(0.5) != 5000 {
		t.Errorf("two operations: %d segments, %d pooled", len(segs), len(pool.ops))
	}
	empty := newWindow(time.Second, nil)
	if pool := quiet(empty.segments()); pool.images() != 0 || pool.throughput() != 0 || pool.percentile(0.9) != 0 {
		t.Errorf("an empty window pooled %+v", pool)
	}
}

func TestSloMetCountsFailuresAsMisses(t *testing.T) {
	w := &window{ops: []op{
		{lat: 10 * time.Millisecond, ok: true},
		{lat: 40 * time.Millisecond, ok: true},  // too slow
		{lat: 10 * time.Millisecond, ok: false}, // fast but wrong
		{lat: 33 * time.Millisecond, ok: true},  // on the limit
	}}
	if got := (segment{ops: w.ops}).sloMet(33 * time.Millisecond); got != 0.5 {
		t.Errorf("sloMet = %v, want 0.5", got)
	}
	if w.failed() != 1 || w.attempted() != 4 {
		t.Errorf("failed %d of %d, want 1 of 4", w.failed(), w.attempted())
	}
}

func TestTraceOverheadSplit(t *testing.T) {
	w := &window{}
	for i := 0; i < 10; i++ {
		l := 10 * time.Millisecond
		if i%2 == 1 {
			l = 11 * time.Millisecond
		}
		w.ops = append(w.ops, op{lat: l, ok: true, traced: i%2 == 1})
	}
	if w.p50(false) != 10 || w.p50(true) != 11 {
		t.Errorf("p50 plain %v traced %v, want 10 and 11", w.p50(false), w.p50(true))
	}
}
