package serve

import "time"

// Merge folds per-shard Stats snapshots into one fleet-level view, the
// aggregation the shard router serves on its own GET /stats. The rules:
//
//   - The per-class ledgers merge by class name (Counts.Add: counters,
//     queue occupancy and stage totals sum, histograms merge exactly), and
//     the aggregate ledger is their sum — the same step a Scheduler's own
//     snapshot takes — so fleet p50/p99 are exact-to-bucket, identical to
//     a single process observing every sample, and the fleet-level class
//     split sums to the fleet aggregate. A shard's own aggregate ledger is
//     never read.
//   - Shards sums so the aggregate reports fleet size; a zero-valued Stats
//     (an unreachable or idle shard) still counts one shard.
//   - Batches and BackendBusy are sums; BackendHist merges exactly.
//   - BatchHist is the element-wise sum via MergeBatchHist (shards may run
//     different MaxBatch; the merged histogram takes the longest length).
//   - MeanBatch is recomputed from the merged totals (dispatched images over
//     batches), not averaged — averaging per-shard means would weight an
//     idle shard equally with a busy one.
//   - ServiceTime is the mean of the shard estimates weighted by each
//     shard's dispatched images (Counts.Dispatched over its classes).
//   - Uptime is the max: the fleet has been up as long as its oldest shard.
//   - QueueHist and BackendHist stay absent until some shard has a sample.
func Merge(shards ...Stats) Stats {
	var m Stats
	backendHist := NewHistogram()
	index := make(map[string]int)
	var svcW float64
	var svcN uint64
	for _, s := range shards {
		if s.Shards > 0 {
			m.Shards += s.Shards
		} else {
			m.Shards++
		}
		var dispatched uint64
		for _, cs := range s.Classes {
			i, ok := index[cs.Class]
			if !ok {
				i = len(m.Classes)
				index[cs.Class] = i
				m.Classes = append(m.Classes, ClassStats{Class: cs.Class, Counts: newCounts()})
			}
			m.Classes[i].Add(cs.Counts)
			dispatched += cs.Dispatched()
		}
		m.Batches += s.Batches
		m.BatchHist = MergeBatchHist(m.BatchHist, s.BatchHist)
		backendHist.Merge(s.BackendHist)
		m.BackendBusy += s.BackendBusy
		if s.Uptime > m.Uptime {
			m.Uptime = s.Uptime
		}
		if s.ServiceTime > 0 && dispatched > 0 {
			svcW += float64(s.ServiceTime) * float64(dispatched)
			svcN += dispatched
		}
	}
	for i := range m.Classes {
		m.Classes[i].derive()
	}
	m.Counts = sum(m.Classes)
	if m.QueueHist.Count() == 0 {
		m.QueueHist = nil
	}
	if backendHist.Count() > 0 {
		m.BackendHist = backendHist
	}
	if m.Batches > 0 {
		m.MeanBatch = float64(m.Dispatched()) / float64(m.Batches)
	}
	if svcN > 0 {
		m.ServiceTime = time.Duration(svcW / float64(svcN))
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
