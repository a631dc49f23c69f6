package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// The latency histogram is log-bucketed with a fixed, package-wide layout:
// bucket upper bounds grow geometrically by 2^(1/histBucketsPerDoubling)
// starting at histMin. Because every process uses the same layout, two
// histograms merge by element-wise count addition — which is what makes
// fleet-level quantiles exact-to-bucket instead of averages of per-shard
// quantiles: merging then taking a quantile gives bit-identical
// results to observing all samples in one process.
const (
	// histMin is the upper bound of the first bucket: everything at or
	// below 1µs lands in bucket 0.
	histMin = time.Microsecond
	// histBucketsPerDoubling sets resolution: 4 buckets per power of two
	// keeps the relative width of any bucket under 2^(1/4)-1 ≈ 19%, so a
	// bucketed quantile overestimates the true sample by at most that.
	histBucketsPerDoubling = 4
	// histBoundCount bounds cover histMin·2^(128/4) ≈ 71.6 minutes; beyond
	// that, samples land in the overflow bucket and quantiles fall back to
	// the tracked exact maximum.
	histBoundCount = 128
)

// histBounds[i] is the inclusive upper bound of bucket i; bucket
// histBoundCount is the overflow bucket (no upper bound).
var histBounds = func() [histBoundCount]time.Duration {
	var b [histBoundCount]time.Duration
	for i := range b {
		b[i] = time.Duration(math.Round(float64(histMin) * math.Pow(2, float64(i)/histBucketsPerDoubling)))
	}
	return b
}()

// HistogramBounds returns a copy of the fixed bucket upper bounds shared by
// every Histogram: bucket i counts samples in (bounds[i-1], bounds[i]]
// (bucket 0 counts everything at or below bounds[0]), and one extra overflow
// bucket counts samples above the last bound.
func HistogramBounds() []time.Duration {
	out := make([]time.Duration, histBoundCount)
	copy(out, histBounds[:])
	return out
}

// Histogram is a mergeable log-bucketed latency histogram. Observe records
// samples, Quantile answers nearest-rank quantiles exact-to-bucket, and
// Merge folds another histogram in exactly (same fixed bucket layout
// everywhere), so per-shard histograms can be summed into a fleet histogram
// whose quantiles match a single-process run over the same samples.
//
// The exact maximum is tracked alongside the buckets, so Quantile never
// reports above the largest observed sample and the overflow bucket still
// has a meaningful representative.
//
// Histogram round-trips through JSON (trailing empty buckets are elided) and
// is not safe for concurrent use — callers hold their own lock (statsState
// does for the Scheduler's histogram).
type Histogram struct {
	counts [histBoundCount + 1]uint64
	total  uint64
	sum    time.Duration
	max    time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// histIndex maps a sample to its bucket. The float log gets within one
// bucket of the right answer; the integer fix-up makes the boundary
// placement exact ((lo, hi] buckets) regardless of rounding.
func histIndex(d time.Duration) int {
	if d <= histMin {
		return 0
	}
	i := int(math.Ceil(histBucketsPerDoubling * math.Log2(float64(d)/float64(histMin))))
	if i > histBoundCount {
		i = histBoundCount
	}
	for i > 0 && d <= histBounds[i-1] {
		i--
	}
	for i < histBoundCount && d > histBounds[i] {
		i++
	}
	return i
}

// Observe records one sample. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Merge adds other's counts into h. A nil other is a no-op. Merging is
// exact: quantiles of the merged histogram equal quantiles of a histogram
// that observed both sample sets directly.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.total }

// Max returns the exact largest observed sample (0 when empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Sum returns the exact total of all observed samples — the numerator a
// Prometheus histogram's _sum line wants. Like the counts it merges by
// addition.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Counts returns a copy of the bucket counts; the last entry is the
// overflow bucket above HistogramBounds()'s final bound.
func (h *Histogram) Counts() []uint64 {
	return append([]uint64(nil), h.counts[:]...)
}

// Quantile returns the nearest-rank p-quantile, rounded up to its bucket's
// upper bound (never above the exact observed maximum). The overestimate is
// bounded by the bucket's relative width, 2^(1/4)-1 ≈ 19%. p outside (0,1]
// is clamped; an empty histogram reports 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	// Clamp in float space: converting a negative product to uint64 would
	// wrap to a huge rank and silently report the max instead of the min.
	fr := math.Ceil(p * float64(h.total))
	if fr < 1 {
		fr = 1
	}
	if fr > float64(h.total) {
		fr = float64(h.total)
	}
	rank := uint64(fr)
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i == histBoundCount || histBounds[i] > h.max {
				return h.max
			}
			return histBounds[i]
		}
	}
	return h.max // unreachable: cum reaches total
}

// histogramJSON is the wire form: bucket counts with trailing zeros elided,
// plus the exact max. The sample total is derived from the counts on decode,
// so the two cannot disagree.
type histogramJSON struct {
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
	SumNS  int64    `json:"sum_ns,omitempty"`
	MaxNS  int64    `json:"max_ns"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	n := len(h.counts)
	for n > 0 && h.counts[n-1] == 0 {
		n--
	}
	return json.Marshal(histogramJSON{
		Counts: h.counts[:n],
		Total:  h.total,
		SumNS:  h.sum.Nanoseconds(),
		MaxNS:  h.max.Nanoseconds(),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Counts) > len(h.counts) {
		return fmt.Errorf("serve: histogram has %d buckets, layout allows %d", len(w.Counts), len(h.counts))
	}
	*h = Histogram{sum: time.Duration(w.SumNS), max: time.Duration(w.MaxNS)}
	copy(h.counts[:], w.Counts)
	for _, c := range w.Counts {
		h.total += c
	}
	return nil
}
