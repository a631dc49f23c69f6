package serve

import "time"

// Merge folds per-shard Stats snapshots into one fleet-level view, the
// aggregation the shard router serves on its own GET /stats. The rules:
//
//   - Counters (Submitted, Rejected, Expired, ExpiredDispatched, Completed,
//     Failed, Batches), queue occupancy, and BackendBusy are sums, so the
//     merged totals equal the sum of the per-shard counters.
//   - Shards sums so the aggregate reports fleet size; a zero-valued Stats
//     (an unreachable or idle shard) still counts one shard.
//   - BatchHist is the element-wise sum via MergeBatchHist (shards may run
//     different MaxBatch; the merged histogram takes the longest length).
//   - MeanBatch is recomputed from the merged totals (dispatched images over
//     batches), not averaged — averaging per-shard means would weight an
//     idle shard equally with a busy one.
//   - Latency quantiles come from the element-wise sum of the per-shard
//     LatencyHist histograms, so the fleet p50/p99 are exact-to-bucket:
//     identical to a single process observing every sample. Only when some
//     shard carries samples but no histogram (an older worker) does the
//     merge fall back to the historical count-weighted mean of per-shard
//     quantiles. LatencyMax is the exact max either way.
//   - ServiceTime is the dispatched-weighted mean of the shard estimates.
//   - Uptime is the max: the fleet has been up as long as its oldest shard.
//   - The per-class splits merge by class name under the same rules
//     (counter sums, exact histogram merges), so fleet-level per-class
//     sums still equal the fleet-level aggregates. Shards without a class
//     split (older workers) contribute only to the aggregates.
func Merge(shards ...Stats) Stats {
	var m Stats
	hist := NewHistogram()
	queueHist := NewHistogram()
	backendHist := NewHistogram()
	classes := make(map[string]*ClassStats)
	var classOrder []string
	exact := true
	var p50w, p99w float64
	var svcW float64
	var svcN uint64
	for _, s := range shards {
		if s.Shards > 0 {
			m.Shards += s.Shards
		} else {
			m.Shards++
		}
		m.Submitted += s.Submitted
		m.Rejected += s.Rejected
		m.Expired += s.Expired
		m.ExpiredDispatched += s.ExpiredDispatched
		m.Completed += s.Completed
		m.Failed += s.Failed
		m.Degraded += s.Degraded
		m.Batches += s.Batches
		for _, cs := range s.Classes {
			agg, ok := classes[cs.Class]
			if !ok {
				agg = &ClassStats{Class: cs.Class, LatencyHist: NewHistogram(), QueueHist: NewHistogram()}
				classes[cs.Class] = agg
				classOrder = append(classOrder, cs.Class)
			}
			agg.Submitted += cs.Submitted
			agg.Rejected += cs.Rejected
			agg.Expired += cs.Expired
			agg.ExpiredDispatched += cs.ExpiredDispatched
			agg.Completed += cs.Completed
			agg.Failed += cs.Failed
			agg.Degraded += cs.Degraded
			agg.QueueDepth += cs.QueueDepth
			agg.QueueCap += cs.QueueCap
			agg.StageReliable += cs.StageReliable
			agg.StageQualifier += cs.StageQualifier
			agg.StageCNN += cs.StageCNN
			agg.LatencyHist.Merge(cs.LatencyHist) // nil-safe no-op
			agg.QueueHist.Merge(cs.QueueHist)
			if cs.LatencyMax > agg.LatencyMax {
				agg.LatencyMax = cs.LatencyMax
			}
		}
		m.BatchHist = MergeBatchHist(m.BatchHist, s.BatchHist)
		m.QueueDepth += s.QueueDepth
		m.QueueCap += s.QueueCap
		m.BackendBusy += s.BackendBusy
		if s.Uptime > m.Uptime {
			m.Uptime = s.Uptime
		}
		if s.LatencyMax > m.LatencyMax {
			m.LatencyMax = s.LatencyMax
		}
		m.LatencyCount += s.LatencyCount
		if s.LatencyHist != nil {
			hist.Merge(s.LatencyHist)
		} else if s.LatencyCount > 0 {
			exact = false
		}
		queueHist.Merge(s.QueueHist) // nil-safe no-ops for older workers
		backendHist.Merge(s.BackendHist)
		m.StageReliable += s.StageReliable
		m.StageQualifier += s.StageQualifier
		m.StageCNN += s.StageCNN
		p50w += float64(s.LatencyP50) * float64(s.LatencyCount)
		p99w += float64(s.LatencyP99) * float64(s.LatencyCount)
		if d := s.Dispatched(); s.ServiceTime > 0 && d > 0 {
			svcW += float64(s.ServiceTime) * float64(d)
			svcN += d
		}
	}
	if m.Batches > 0 {
		m.MeanBatch = float64(m.Dispatched()) / float64(m.Batches)
	}
	if svcN > 0 {
		m.ServiceTime = time.Duration(svcW / float64(svcN))
	}
	if queueHist.Count() > 0 {
		m.QueueHist = queueHist
	}
	if backendHist.Count() > 0 {
		m.BackendHist = backendHist
	}
	switch {
	case exact:
		m.LatencyHist = hist
		if hist.Count() > 0 {
			m.LatencyCount = int(hist.Count())
			m.LatencyP50 = hist.Quantile(0.50)
			m.LatencyP99 = hist.Quantile(0.99)
		}
	case m.LatencyCount > 0:
		m.LatencyP50 = time.Duration(p50w / float64(m.LatencyCount))
		m.LatencyP99 = time.Duration(p99w / float64(m.LatencyCount))
	}
	for _, name := range classOrder {
		agg := classes[name]
		if n := agg.LatencyHist.Count(); n > 0 {
			agg.LatencyCount = int(n)
			agg.LatencyP50 = agg.LatencyHist.Quantile(0.50)
			agg.LatencyP99 = agg.LatencyHist.Quantile(0.99)
		}
		m.Classes = append(m.Classes, *agg)
	}
	return m
}

// MergeBatchHist element-wise sums two batch-size histograms, extending to
// the longer of the two (shards may be configured with different MaxBatch).
// A fresh slice is returned; neither argument is modified.
func MergeBatchHist(a, b []uint64) []uint64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	copy(out, a)
	for i, v := range b {
		out[i] += v
	}
	return out
}
