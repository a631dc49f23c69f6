package serve

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistogramBucketPlacement pins the (lo, hi] bucket rule against the
// exported bounds: every bound itself lands in its own bucket, one
// nanosecond above lands in the next, and out-of-range samples hit the
// underflow/overflow buckets.
func TestHistogramBucketPlacement(t *testing.T) {
	bounds := HistogramBounds()
	if len(bounds) != histBoundCount {
		t.Fatalf("exported %d bounds, layout has %d", len(bounds), histBoundCount)
	}
	for i, b := range bounds {
		if got := histIndex(b); got != i {
			t.Fatalf("bound %d (%v) placed in bucket %d", i, b, got)
		}
		if got := histIndex(b + 1); got != i+1 {
			t.Fatalf("bound %d (%v)+1ns placed in bucket %d, want %d", i, b, got, i+1)
		}
	}
	if got := histIndex(0); got != 0 {
		t.Errorf("0 placed in bucket %d", got)
	}
	if got := histIndex(bounds[len(bounds)-1] * 10); got != histBoundCount {
		t.Errorf("huge sample placed in bucket %d, want overflow %d", got, histBoundCount)
	}
	// Bounds strictly increase — the cumulative walk in Quantile relies on it.
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}
}

// TestHistogramQuantileErrorBound: against a reference nearest-rank over the
// raw samples, the bucketed quantile never under-reports and overestimates
// by at most one bucket's relative width.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	samples := make([]time.Duration, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~6 decades, the shape serving latencies take.
		d := time.Duration(float64(time.Microsecond) * math.Pow(10, rng.Float64()*6))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 1.0} {
		exact := NearestRank(samples, p)
		got := h.Quantile(p)
		if got < exact {
			t.Errorf("p=%v: bucketed %v under-reports exact %v", p, got, exact)
		}
		if limit := time.Duration(float64(exact) * 1.19); got > limit {
			t.Errorf("p=%v: bucketed %v exceeds exact %v by more than a bucket (%v)", p, got, exact, limit)
		}
	}
	if h.Quantile(1.0) != h.Max() {
		t.Errorf("p100 %v != exact max %v", h.Quantile(1.0), h.Max())
	}
	if e := NewHistogram(); e.Quantile(0.99) != 0 || e.Max() != 0 || e.Count() != 0 {
		t.Error("empty histogram not zero-valued")
	}
}

// TestHistogramMergeExact is the acceptance property for fleet quantiles:
// observing a sample set split across N histograms and merging them yields
// bit-identical quantiles to observing the whole set in one histogram.
func TestHistogramMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	single := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < 3000; i++ {
		d := time.Duration(rng.Int63n(int64(5 * time.Second)))
		single.Observe(d)
		parts[rng.Intn(len(parts))].Observe(d)
	}
	merged := NewHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	merged.Merge(nil) // no-op
	if merged.Count() != single.Count() || merged.Max() != single.Max() {
		t.Fatalf("merged count/max %d/%v != single %d/%v",
			merged.Count(), merged.Max(), single.Count(), single.Max())
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if m, s := merged.Quantile(p), single.Quantile(p); m != s {
			t.Errorf("p=%v: merged %v != single-process %v", p, m, s)
		}
	}
}

// TestHistogramJSONRoundTrip: the stats API ships histograms as JSON; decode
// must reconstruct counts, total, and max exactly (the shard router depends
// on this to merge what workers report).
func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{0, time.Microsecond, 3 * time.Millisecond,
		3 * time.Millisecond, time.Second, 2 * time.Hour} {
		h.Observe(d)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Max() != h.Max() {
		t.Fatalf("round-trip count/max %d/%v != %d/%v", back.Count(), back.Max(), h.Count(), h.Max())
	}
	for _, p := range []float64{0.5, 0.99, 1.0} {
		if back.Quantile(p) != h.Quantile(p) {
			t.Errorf("p=%v: %v != %v after round trip", p, back.Quantile(p), h.Quantile(p))
		}
	}
	var bad Histogram
	tooMany, _ := json.Marshal(histogramJSON{Counts: make([]uint64, histBoundCount+2)})
	if err := json.Unmarshal(tooMany, &bad); err == nil {
		t.Error("oversized bucket array accepted")
	}
}

// TestMergeStatsHistogramExact: Stats carrying histograms merge to exact
// fleet quantiles — identical to one scheduler observing every sample — and
// zero-valued stats (dead shards) change nothing except the shard count.
func TestMergeStatsHistogramExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := NewHistogram()
	shards := make([]Stats, 3)
	for i := range shards {
		h := NewHistogram()
		for j := 0; j < 500*(i+1); j++ {
			d := time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
			h.Observe(d)
			all.Observe(d)
		}
		// Each shard serves a different class: the fleet quantiles come from
		// the sum across classes as well as across shards.
		shards[i] = Stats{Shards: 1, Classes: []ClassStats{
			{Class: Classes[i].String(), Counts: Counts{Completed: h.Count(), LatencyHist: h}},
		}}
	}
	// A dead shard merged as zero-valued stats.
	shards = append(shards, Stats{})
	m := Merge(shards...)
	if m.Shards != 4 {
		t.Errorf("fleet size %d, want 4 including the dead shard", m.Shards)
	}
	if m.LatencyHist == nil || m.LatencyHist.Count() != all.Count() {
		t.Fatalf("merged histogram missing or short: %+v", m.LatencyHist)
	}
	if m.LatencyP50 != all.Quantile(0.50) || m.LatencyP99 != all.Quantile(0.99) {
		t.Errorf("merged p50/p99 %v/%v != single-process %v/%v",
			m.LatencyP50, m.LatencyP99, all.Quantile(0.50), all.Quantile(0.99))
	}
	if m.LatencyMax != all.Max() {
		t.Errorf("merged max %v != %v", m.LatencyMax, all.Max())
	}
}
