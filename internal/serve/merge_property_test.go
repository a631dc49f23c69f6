package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// randHist fills a histogram with 0..n random observations up to ~1s.
func randHist(rng *rand.Rand, n int) *Histogram {
	h := NewHistogram()
	for i := 0; i < rng.Intn(n+1); i++ {
		h.Observe(time.Duration(1 + rng.Int63n(int64(time.Second))))
	}
	return h
}

// randStats generates one shard's plausible snapshot: per-class splits
// whose sums equal the aggregate fields by construction (the invariant a
// live snapshot holds), full histograms, and every merged signal
// populated — the richest input Merge ever sees.
func randStats(rng *rand.Rand) Stats {
	s := Stats{
		Shards:      1,
		Batches:     uint64(1 + rng.Intn(200)),
		ServiceTime: time.Duration(1+rng.Intn(20)) * time.Millisecond,
		BackendBusy: time.Duration(rng.Int63n(int64(10 * time.Second))),
		Uptime:      time.Duration(rng.Int63n(int64(time.Hour))),
		BatchHist:   make([]uint64, 1+rng.Intn(8)),
		BackendHist: randHist(rng, 60),
	}
	for i := range s.BatchHist {
		s.BatchHist[i] = uint64(rng.Intn(50))
	}
	lat := NewHistogram()
	queue := NewHistogram()
	for _, c := range Classes {
		cs := ClassStats{
			Class:             c.String(),
			Submitted:         uint64(rng.Intn(1000)),
			Rejected:          uint64(rng.Intn(100)),
			Expired:           uint64(rng.Intn(50)),
			ExpiredDispatched: uint64(rng.Intn(20)),
			Completed:         uint64(1 + rng.Intn(800)),
			Failed:            uint64(rng.Intn(30)),
			Degraded:          uint64(rng.Intn(40)),
			QueueDepth:        rng.Intn(64),
			QueueCap:          64 + rng.Intn(512),
			StageReliable:     time.Duration(rng.Int63n(int64(time.Second))),
			StageQualifier:    time.Duration(rng.Int63n(int64(time.Second))),
			StageCNN:          time.Duration(rng.Int63n(int64(time.Second))),
			LatencyHist:       randHist(rng, 80),
			QueueHist:         randHist(rng, 80),
		}
		if n := cs.LatencyHist.Count(); n > 0 {
			cs.LatencyCount = int(n)
			cs.LatencyP50 = cs.LatencyHist.Quantile(0.50)
			cs.LatencyP99 = cs.LatencyHist.Quantile(0.99)
			cs.LatencyMax = cs.LatencyHist.Max()
		}
		s.Submitted += cs.Submitted
		s.Rejected += cs.Rejected
		s.Expired += cs.Expired
		s.ExpiredDispatched += cs.ExpiredDispatched
		s.Completed += cs.Completed
		s.Failed += cs.Failed
		s.Degraded += cs.Degraded
		s.QueueDepth += cs.QueueDepth
		s.QueueCap += cs.QueueCap
		s.StageReliable += cs.StageReliable
		s.StageQualifier += cs.StageQualifier
		s.StageCNN += cs.StageCNN
		lat.Merge(cs.LatencyHist)
		queue.Merge(cs.QueueHist)
		s.Classes = append(s.Classes, cs)
	}
	s.LatencyHist = lat
	s.QueueHist = queue
	if n := lat.Count(); n > 0 {
		s.LatencyCount = int(n)
		s.LatencyP50 = lat.Quantile(0.50)
		s.LatencyP99 = lat.Quantile(0.99)
		s.LatencyMax = lat.Max()
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.Dispatched()) / float64(s.Batches)
	}
	return s
}

func histsEqual(a, b *Histogram) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Count() != b.Count() || a.Max() != b.Max() || a.Sum() != b.Sum() {
		return false
	}
	ca, cb := a.Counts(), b.Counts()
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// durClose allows the truncation error Duration arithmetic accumulates
// through nested weighted means.
func durClose(a, b time.Duration) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= time.Microsecond
}

func floatClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// mergesEquivalent compares two Merge results: exact on every integer
// counter and histogram, tolerant on the float/duration aggregates
// (weighted means and float sums are order-sensitive at rounding scale).
func mergesEquivalent(t *testing.T, label string, a, b Stats) {
	t.Helper()
	type check struct {
		name string
		ok   bool
	}
	checks := []check{
		{"shards", a.Shards == b.Shards},
		{"submitted", a.Submitted == b.Submitted},
		{"rejected", a.Rejected == b.Rejected},
		{"expired", a.Expired == b.Expired},
		{"expired_dispatched", a.ExpiredDispatched == b.ExpiredDispatched},
		{"completed", a.Completed == b.Completed},
		{"failed", a.Failed == b.Failed},
		{"degraded", a.Degraded == b.Degraded},
		{"batches", a.Batches == b.Batches},
		{"mean_batch", floatClose(a.MeanBatch, b.MeanBatch)},
		{"queue_depth", a.QueueDepth == b.QueueDepth},
		{"queue_cap", a.QueueCap == b.QueueCap},
		{"latency_count", a.LatencyCount == b.LatencyCount},
		{"latency_p50", a.LatencyP50 == b.LatencyP50},
		{"latency_p99", a.LatencyP99 == b.LatencyP99},
		{"latency_max", a.LatencyMax == b.LatencyMax},
		{"latency_hist", histsEqual(a.LatencyHist, b.LatencyHist)},
		{"queue_hist", histsEqual(a.QueueHist, b.QueueHist)},
		{"backend_hist", histsEqual(a.BackendHist, b.BackendHist)},
		{"stage_reliable", a.StageReliable == b.StageReliable},
		{"stage_qualifier", a.StageQualifier == b.StageQualifier},
		{"stage_cnn", a.StageCNN == b.StageCNN},
		{"service_time", durClose(a.ServiceTime, b.ServiceTime)},
		{"backend_busy", a.BackendBusy == b.BackendBusy},
		{"uptime", a.Uptime == b.Uptime},
		{"batch_hist_len", len(a.BatchHist) == len(b.BatchHist)},
		{"class_count", len(a.Classes) == len(b.Classes)},
	}
	for i := range a.BatchHist {
		if i < len(b.BatchHist) && a.BatchHist[i] != b.BatchHist[i] {
			checks = append(checks, check{fmt.Sprintf("batch_hist[%d]", i), false})
		}
	}
	// Classes may come out in a different order (encounter order); compare
	// by name.
	for _, ca := range a.Classes {
		var cb *ClassStats
		for i := range b.Classes {
			if b.Classes[i].Class == ca.Class {
				cb = &b.Classes[i]
				break
			}
		}
		if cb == nil {
			checks = append(checks, check{"class " + ca.Class + " present", false})
			continue
		}
		checks = append(checks,
			check{"class " + ca.Class + " counters",
				ca.Submitted == cb.Submitted && ca.Rejected == cb.Rejected &&
					ca.Expired == cb.Expired && ca.ExpiredDispatched == cb.ExpiredDispatched &&
					ca.Completed == cb.Completed && ca.Failed == cb.Failed &&
					ca.Degraded == cb.Degraded && ca.QueueDepth == cb.QueueDepth &&
					ca.QueueCap == cb.QueueCap},
			check{"class " + ca.Class + " stages",
				ca.StageReliable == cb.StageReliable && ca.StageQualifier == cb.StageQualifier &&
					ca.StageCNN == cb.StageCNN},
			check{"class " + ca.Class + " hists",
				histsEqual(ca.LatencyHist, cb.LatencyHist) && histsEqual(ca.QueueHist, cb.QueueHist)},
			check{"class " + ca.Class + " quantiles",
				ca.LatencyCount == cb.LatencyCount && ca.LatencyP50 == cb.LatencyP50 &&
					ca.LatencyP99 == cb.LatencyP99 && ca.LatencyMax == cb.LatencyMax},
		)
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s: %s differs", label, c.name)
		}
	}
}

// TestMergeCommutative: Merge(a, b) ≡ Merge(b, a) over randomized
// realistic snapshots — placement order of shards in a fleet must not
// change the aggregate.
func TestMergeCommutative(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := randStats(rng), randStats(rng)
		mergesEquivalent(t, fmt.Sprintf("seed %d", seed), Merge(a, b), Merge(b, a))
	}
}

// TestMergeAssociative: Merge(Merge(a,b), c) ≡ Merge(a, Merge(b,c)) —
// hierarchical aggregation (router-of-routers) must agree with flat
// aggregation. Integer counters and histograms are exact; weighted means
// carry a duration-truncation tolerance.
func TestMergeAssociative(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := randStats(rng), randStats(rng), randStats(rng)
		left := Merge(Merge(a, b), c)
		right := Merge(a, Merge(b, c))
		mergesEquivalent(t, fmt.Sprintf("seed %d", seed), left, right)
		flat := Merge(a, b, c)
		mergesEquivalent(t, fmt.Sprintf("seed %d flat-vs-left", seed), flat, left)
	}
}

// TestMergeClassSplitSumsToAggregate: in any Merge result over inputs
// whose class splits tile their aggregates, the output class splits tile
// the output aggregates — counters, stage-busy time, and histogram counts.
func TestMergeClassSplitSumsToAggregate(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := make([]Stats, 2+rng.Intn(5))
		for i := range shards {
			shards[i] = randStats(rng)
		}
		m := Merge(shards...)
		var sum ClassStats
		var latN uint64
		var stageR, stageQ, stageC time.Duration
		for _, cs := range m.Classes {
			sum.Submitted += cs.Submitted
			sum.Rejected += cs.Rejected
			sum.Expired += cs.Expired
			sum.ExpiredDispatched += cs.ExpiredDispatched
			sum.Completed += cs.Completed
			sum.Failed += cs.Failed
			sum.Degraded += cs.Degraded
			sum.QueueDepth += cs.QueueDepth
			sum.QueueCap += cs.QueueCap
			stageR += cs.StageReliable
			stageQ += cs.StageQualifier
			stageC += cs.StageCNN
			if cs.LatencyHist != nil {
				latN += cs.LatencyHist.Count()
			}
			if cs.LatencyMax > m.LatencyMax {
				t.Errorf("seed %d: class %s max %v exceeds aggregate max %v", seed, cs.Class, cs.LatencyMax, m.LatencyMax)
			}
		}
		if sum.Submitted != m.Submitted || sum.Rejected != m.Rejected ||
			sum.Expired != m.Expired || sum.ExpiredDispatched != m.ExpiredDispatched ||
			sum.Completed != m.Completed || sum.Failed != m.Failed || sum.Degraded != m.Degraded {
			t.Errorf("seed %d: class counter sums do not tile the aggregate", seed)
		}
		if sum.QueueDepth != m.QueueDepth || sum.QueueCap != m.QueueCap {
			t.Errorf("seed %d: class queue sums %d/%d != aggregate %d/%d", seed, sum.QueueDepth, sum.QueueCap, m.QueueDepth, m.QueueCap)
		}
		if stageR != m.StageReliable || stageQ != m.StageQualifier || stageC != m.StageCNN {
			t.Errorf("seed %d: class stage-busy sums do not tile the aggregate", seed)
		}
		if m.LatencyHist != nil && latN != m.LatencyHist.Count() {
			t.Errorf("seed %d: class histogram counts sum %d != aggregate %d", seed, latN, m.LatencyHist.Count())
		}
	}
}

// TestMergeIdentity: merging with a zero-valued placeholder (an
// unreachable shard) adds a shard to the count and changes nothing else.
func TestMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randStats(rng)
	m := Merge(a, Stats{})
	if m.Shards != a.Shards+1 {
		t.Fatalf("shards %d, want %d", m.Shards, a.Shards+1)
	}
	m.Shards = a.Shards
	mergesEquivalent(t, "identity", m, Merge(a))
}
