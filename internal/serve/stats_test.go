package serve

import (
	"testing"
	"time"
)

// TestNearestRankSmallWindows pins the quantile rule on exactly the windows
// the old floor indexing got wrong: under ~50 samples, (n-1)*99/100 floors
// to (n-1)/2-ish indices and P99 collapsed onto P50. Nearest-rank keeps P99
// at the window maximum for any n < 100.
func TestNearestRankSmallWindows(t *testing.T) {
	mk := func(n int) []time.Duration {
		w := make([]time.Duration, n)
		for i := range w {
			w[i] = time.Duration(i+1) * time.Millisecond
		}
		return w
	}
	cases := []struct {
		n        int
		p        float64
		wantIdx  int
		scenario string
	}{
		{1, 0.50, 0, "singleton p50"},
		{1, 0.99, 0, "singleton p99"},
		{2, 0.50, 0, "n=2 p50 is the lower sample"},
		{2, 0.99, 1, "n=2 p99 is the max"},
		{10, 0.50, 4, "n=10 p50"},
		{10, 0.99, 9, "n=10 p99 is the max (floor gave index 8)"},
		{49, 0.99, 48, "n=49 p99 is the max (floor collapsed to p50 territory)"},
		{100, 0.99, 98, "n=100 p99 leaves the max out"},
		{101, 0.50, 50, "n=101 median"},
	}
	for _, c := range cases {
		w := mk(c.n)
		if got := NearestRank(w, c.p); got != w[c.wantIdx] {
			t.Errorf("%s: NearestRank(n=%d, p=%v) = %v, want %v", c.scenario, c.n, c.p, got, w[c.wantIdx])
		}
	}
	if got := NearestRank(nil, 0.99); got != 0 {
		t.Errorf("empty window: %v, want 0", got)
	}
	w := mk(5)
	if got := NearestRank(w, -1); got != w[0] {
		t.Errorf("p<=0 clamps to min: %v", got)
	}
	if got := NearestRank(w, 2); got != w[4] {
		t.Errorf("p>1 clamps to max: %v", got)
	}
}

// TestSnapshotQuantiles drives the stats state directly: quantiles are
// exact-to-bucket (a nearest-rank selection rounded up to the bucket bound,
// never past the exact max), the histogram rides along in the snapshot, and
// the service-time EWMA tracks backend time per image.
func TestSnapshotQuantiles(t *testing.T) {
	var st statsState
	st.init(10)
	// Timings with Done-Enqueued spanning 1..10ms; queue wait and backend
	// time ride along as fixed fractions so the per-stage histograms fill.
	base := time.Now()
	timings := make([]Timing, 10)
	for i := range timings {
		lat := time.Duration(i+1) * time.Millisecond
		timings[i] = Timing{
			Enqueued:   base,
			Picked:     base.Add(lat / 4),
			Dispatched: base.Add(lat / 2),
			Done:       base.Add(lat),
			BatchSize:  len(timings),
		}
	}
	st.batchDone(len(timings), 10*time.Millisecond)
	st.completed(timings)
	s := st.snapshot([NumClasses]int{}, [NumClasses]int{})
	if s.LatencyCount != 10 {
		t.Fatalf("latency count %d", s.LatencyCount)
	}
	// True p50 is 5ms; the bucketed estimate rounds up to the bucket bound,
	// at most 2^(1/4)-1 ≈ 19% above.
	if s.LatencyP50 < 5*time.Millisecond || s.LatencyP50 > 5*time.Millisecond*119/100 {
		t.Errorf("p50 = %v, want within one bucket above 5ms", s.LatencyP50)
	}
	// p99 of 10 samples is the max, and the quantile clamps to the exact max.
	if s.LatencyP99 != 10*time.Millisecond {
		t.Errorf("p99 = %v, want the exact 10ms max", s.LatencyP99)
	}
	if s.LatencyMax != 10*time.Millisecond {
		t.Errorf("max = %v", s.LatencyMax)
	}
	if s.LatencyHist == nil || s.LatencyHist.Count() != 10 {
		t.Fatalf("snapshot histogram missing or wrong count: %+v", s.LatencyHist)
	}
	if s.ServiceTime != time.Millisecond {
		t.Errorf("service time EWMA = %v, want 1ms (10ms busy over 10 images)", s.ServiceTime)
	}
	if s.Shards != 1 {
		t.Errorf("scheduler snapshot covers %d shards, want 1", s.Shards)
	}
}

// TestMergeStats pins the fleet-aggregation rules: class ledgers merge by
// class name in encounter order, the aggregate is their sum, the batch
// histogram is an element-wise sum over the longest length, MeanBatch is
// recomputed from merged totals, Uptime and LatencyMax take the max.
// TestMergeStatsHistogramExact covers the quantiles.
func TestMergeStats(t *testing.T) {
	hist := func(n int, top time.Duration) *Histogram {
		h := NewHistogram()
		for i := 1; i <= n; i++ {
			h.Observe(top * time.Duration(i) / time.Duration(n))
		}
		return h
	}
	class := func(name string, c Counts) ClassStats {
		c.QueueHist = NewHistogram()
		return ClassStats{Class: name, Counts: c}
	}
	a := Stats{
		Batches: 20, BatchHist: []uint64{2, 3, 15},
		BackendBusy: time.Second, Uptime: 10 * time.Second,
		Classes: []ClassStats{
			class("guaranteed", Counts{Submitted: 60, Rejected: 5, Expired: 2, ExpiredDispatched: 1,
				Completed: 50, Failed: 7, QueueDepth: 1, QueueCap: 32, LatencyHist: hist(50, 40*time.Millisecond)}),
			class("budget", Counts{Submitted: 40, Completed: 40, Degraded: 3, QueueCap: 32,
				LatencyHist: hist(40, 20*time.Millisecond)}),
		},
	}
	b := Stats{
		Batches: 15, BatchHist: []uint64{5, 10},
		BackendBusy: 2 * time.Second, Uptime: 8 * time.Second,
		Classes: []ClassStats{
			class("budget", Counts{Submitted: 50, Completed: 45, Expired: 5, QueueDepth: 2, QueueCap: 32,
				LatencyHist: hist(45, 35*time.Millisecond)}),
		},
	}
	m := Merge(a, b)
	if m.Submitted != 150 || m.Rejected != 5 || m.Expired != 7 ||
		m.ExpiredDispatched != 1 || m.Completed != 135 || m.Failed != 7 || m.Degraded != 3 {
		t.Fatalf("counter sums wrong: %+v", m.Counts)
	}
	if len(m.Classes) != 2 || m.Classes[0].Class != "guaranteed" || m.Classes[1].Class != "budget" {
		t.Fatalf("merged classes %+v, want guaranteed then budget", m.Classes)
	}
	if bc := m.Classes[1]; bc.Submitted != 90 || bc.Completed != 85 || bc.Expired != 5 ||
		bc.Degraded != 3 || bc.QueueDepth != 2 || bc.QueueCap != 64 || bc.LatencyCount != 85 {
		t.Errorf("budget merged across shards: %+v", bc.Counts)
	}
	checkAggregateIsClassSum(t, "merge", m)
	if m.Batches != 35 {
		t.Fatalf("batches %d", m.Batches)
	}
	wantHist := []uint64{7, 13, 15}
	if len(m.BatchHist) != len(wantHist) {
		t.Fatalf("hist %v, want %v", m.BatchHist, wantHist)
	}
	for i := range wantHist {
		if m.BatchHist[i] != wantHist[i] {
			t.Fatalf("hist %v, want %v", m.BatchHist, wantHist)
		}
	}
	wantMean := float64(m.Dispatched()) / float64(m.Batches)
	if m.MeanBatch != wantMean {
		t.Errorf("mean batch %v, want %v recomputed from totals", m.MeanBatch, wantMean)
	}
	if m.QueueDepth != 3 || m.QueueCap != 96 {
		t.Errorf("queue %d/%d", m.QueueDepth, m.QueueCap)
	}
	if m.LatencyCount != 135 {
		t.Errorf("latency count %d", m.LatencyCount)
	}
	if m.LatencyMax != 40*time.Millisecond {
		t.Errorf("max %v", m.LatencyMax)
	}
	if m.Uptime != 10*time.Second {
		t.Errorf("uptime %v, want the oldest shard's", m.Uptime)
	}
	if m.BackendBusy != 3*time.Second {
		t.Errorf("busy %v", m.BackendBusy)
	}
	if m.Shards != 2 {
		t.Errorf("merged shard count %d, want 2 (fleet size, not live-shard count)", m.Shards)
	}

	if z := Merge(); z.Submitted != 0 || z.BatchHist != nil || z.Classes != nil {
		t.Errorf("empty merge not zero: %+v", z)
	}
	if h := MergeBatchHist(nil, nil); h != nil {
		t.Errorf("nil hist merge: %v", h)
	}
	if h := MergeBatchHist([]uint64{1}, []uint64{0, 2}); len(h) != 2 || h[0] != 1 || h[1] != 2 {
		t.Errorf("uneven hist merge: %v", h)
	}
}

// checkAggregateIsClassSum fails unless st's aggregate ledger equals the
// field-by-field sum of its class ledgers, histograms and the quantiles
// derived from them included.
func checkAggregateIsClassSum(t *testing.T, label string, st Stats) {
	t.Helper()
	var want Counts
	lat, queue := NewHistogram(), NewHistogram()
	for _, cs := range st.Classes {
		want.Submitted += cs.Submitted
		want.Rejected += cs.Rejected
		want.Expired += cs.Expired
		want.ExpiredDispatched += cs.ExpiredDispatched
		want.Completed += cs.Completed
		want.Failed += cs.Failed
		want.Degraded += cs.Degraded
		want.QueueDepth += cs.QueueDepth
		want.QueueCap += cs.QueueCap
		want.StageReliable += cs.StageReliable
		want.StageQualifier += cs.StageQualifier
		want.StageCNN += cs.StageCNN
		lat.Merge(cs.LatencyHist)
		queue.Merge(cs.QueueHist)
	}
	want.LatencyCount, want.LatencyMax = int(lat.Count()), lat.Max()
	want.LatencyP50, want.LatencyP99 = lat.Quantile(0.50), lat.Quantile(0.99)
	got := st.Counts
	if got.QueueHist == nil { // Merge omits an empty queue-wait histogram
		got.QueueHist = NewHistogram()
	}
	if !histsEqual(got.LatencyHist, lat) || !histsEqual(got.QueueHist, queue) {
		t.Errorf("%s: aggregate histograms are not the sum of the class histograms", label)
	}
	got.LatencyHist, got.QueueHist = nil, nil
	if got != want {
		t.Errorf("%s: aggregate %+v != sum of classes %+v", label, got, want)
	}
}

// TestStageTimesBooking pins how a batch's stage report is booked to
// classes: proportional to rider count, the integer remainder to the last
// participating class, and time for a stage no rider ran (reliable time in
// an all-CNN batch, which core never reports but a backend may) whole to
// the batch's last class — so the class totals always sum to the report.
func TestStageTimesBooking(t *testing.T) {
	var st statsState
	st.init(8)
	// guaranteed 1 + budget 2 full riders, one fast rider: 10ns of reliable
	// time splits 3 / 7, CNN time 4 ways.
	st.stageTimes([3]time.Duration{10, 0, 8}, [NumClasses]int{1, 0, 2}, [NumClasses]int{1, 1, 2})
	// An all-CNN batch (fast + a degraded budget rider) that still reports
	// reliable and qualifier time.
	st.stageTimes([3]time.Duration{5, 3, 4}, [NumClasses]int{}, [NumClasses]int{0, 1, 1})
	s := st.snapshot([NumClasses]int{}, [NumClasses]int{})
	want := [NumClasses][3]time.Duration{
		ClassGuaranteed: {3, 0, 2},
		ClassFast:       {0, 0, 2 + 2},
		ClassBudget:     {7 + 5, 3, 4 + 2},
	}
	for _, c := range Classes {
		cs := s.Class(c)
		if got := [3]time.Duration{cs.StageReliable, cs.StageQualifier, cs.StageCNN}; got != want[c] {
			t.Errorf("%v stages %v, want %v", c, got, want[c])
		}
	}
	if s.StageReliable != 15 || s.StageQualifier != 3 || s.StageCNN != 12 {
		t.Errorf("aggregate stages %v/%v/%v, want the reports' totals 15/3/12", s.StageReliable, s.StageQualifier, s.StageCNN)
	}
}
