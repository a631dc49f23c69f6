package serve

import (
	"math"
	"sync"
	"time"
)

// Stats is a point-in-time snapshot of a Scheduler's counters. Latency
// quantiles are nearest-rank selections over a cumulative log-bucketed
// histogram (LatencyHist) — exact-to-bucket, see Histogram — and durations
// are nanoseconds in JSON.
//
// Every submitted request resolves to exactly one of Expired,
// ExpiredDispatched, Completed or Failed, so once the queue is drained
// Submitted equals their sum. Every counter and histogram also splits per
// service class in Classes; the per-class values sum to the aggregate
// fields by construction (both are updated under the same lock from the
// same events).
type Stats struct {
	// Shards is how many schedulers this snapshot covers: 1 for a
	// Scheduler's own stats, the fleet size for a Merge aggregate
	// (unreachable shards merged as zero-valued stats still count).
	Shards int `json:"shards,omitempty"`

	// Admission counters.
	Submitted uint64 `json:"submitted"` // accepted into a queue
	Rejected  uint64 `json:"rejected"`  // ErrQueueFull admissions
	Expired   uint64 `json:"expired"`   // context expired while queued
	// ExpiredDispatched counts requests whose context expired after their
	// batch was handed to the backend: the backend work is wasted, the
	// result is discarded, and the request is NOT counted Completed.
	ExpiredDispatched uint64 `json:"expired_dispatched"`
	Completed         uint64 `json:"completed"` // classified successfully
	Failed            uint64 `json:"failed"`    // failed with the batch's backend error
	// Degraded counts budget requests re-admitted into the fast (CNN-only)
	// pipeline because the budget queue was full. Counted exactly once, at
	// admission; a degraded request still resolves to exactly one of the
	// outcome counters above.
	Degraded uint64 `json:"degraded"`

	// Batching. The histogram and mean reflect what the backend saw
	// (dispatched sizes), including riders that later expired mid-flight.
	Batches   uint64   `json:"batches"`    // backend invocations
	MeanBatch float64  `json:"mean_batch"` // dispatched images over Batches
	BatchHist []uint64 `json:"batch_hist"` // BatchHist[i] = batches of size i+1

	// Queue occupancy (live, summed across the class queues).
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	// End-to-end latency (enqueue → response) since process start.
	// LatencyHist is the full mergeable histogram; the quantile fields are
	// derived from it at snapshot time for convenience.
	LatencyCount int           `json:"latency_count"`
	LatencyP50   time.Duration `json:"latency_p50_ns"`
	LatencyP99   time.Duration `json:"latency_p99_ns"`
	LatencyMax   time.Duration `json:"latency_max_ns"`
	LatencyHist  *Histogram    `json:"latency_hist,omitempty"`

	// Per-stage latency, same mergeable bucket layout as LatencyHist:
	// QueueHist is enqueue → picked into a batch; BackendHist is the wall
	// time of the request's batch inside the backend. Together with the
	// stage counters below they are the substrate of the /metrics
	// per-stage breakdown.
	QueueHist   *Histogram `json:"queue_hist,omitempty"`
	BackendHist *Histogram `json:"backend_hist,omitempty"`

	// Cumulative backend pipeline stage time (per-worker wall time summed
	// across the pool — can exceed wall clock under parallelism, like CPU
	// time). Zero when the backend does not report stage timing.
	StageReliable  time.Duration `json:"stage_reliable_ns"`
	StageQualifier time.Duration `json:"stage_qualifier_ns"`
	StageCNN       time.Duration `json:"stage_cnn_ns"`

	// ServiceTime is a rolling (EWMA, α=1/8) estimate of backend time per
	// image — the shard's speed, independent of queueing. The shard router
	// uses it for heterogeneity-aware weighted placement.
	ServiceTime time.Duration `json:"service_ns"`

	// BackendBusy is cumulative wall time spent inside the backend; over
	// uptime it gives backend utilisation.
	BackendBusy time.Duration `json:"backend_busy_ns"`
	Uptime      time.Duration `json:"uptime_ns"`

	// Classes is the per-service-class split, in Classes order
	// (guaranteed, fast, budget). Always length NumClasses for a live
	// snapshot; empty only for zero-valued placeholder Stats.
	Classes []ClassStats `json:"classes,omitempty"`
}

// ClassStats is one service class's slice of the scheduler counters. The
// same outcome invariant holds per class: Submitted resolves to exactly
// one of Expired, ExpiredDispatched, Completed or Failed. QueueDepth
// counts requests waiting in this class's queue — a degraded budget
// request occupies (and is counted in) the fast queue, while its
// Submitted/Completed/… accounting stays under budget.
type ClassStats struct {
	Class             string `json:"class"`
	Submitted         uint64 `json:"submitted"`
	Rejected          uint64 `json:"rejected"`
	Expired           uint64 `json:"expired"`
	ExpiredDispatched uint64 `json:"expired_dispatched"`
	Completed         uint64 `json:"completed"`
	Failed            uint64 `json:"failed"`
	Degraded          uint64 `json:"degraded"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	LatencyCount int           `json:"latency_count"`
	LatencyP50   time.Duration `json:"latency_p50_ns"`
	LatencyP99   time.Duration `json:"latency_p99_ns"`
	LatencyMax   time.Duration `json:"latency_max_ns"`
	LatencyHist  *Histogram    `json:"latency_hist,omitempty"`
	QueueHist    *Histogram    `json:"queue_hist,omitempty"`

	// Per-class share of the backend stage-busy time: reliable + qualifier
	// time is apportioned among the batch's full-pipeline riders, CNN time
	// among all riders, by rider count. The per-class sums equal the
	// aggregate stage counters exactly (remainders are assigned, not
	// dropped).
	StageReliable  time.Duration `json:"stage_reliable_ns"`
	StageQualifier time.Duration `json:"stage_qualifier_ns"`
	StageCNN       time.Duration `json:"stage_cnn_ns"`
}

// Dispatched is the number of images the backend has been asked to classify:
// every terminal outcome downstream of a backend invocation.
func (s Stats) Dispatched() uint64 {
	return s.Completed + s.Failed + s.ExpiredDispatched
}

// Class returns the snapshot's stats for one service class (zero-valued if
// the snapshot carries no class split, e.g. a placeholder from an
// unreachable shard).
func (s Stats) Class(c Class) ClassStats {
	name := c.String()
	for _, cs := range s.Classes {
		if cs.Class == name {
			return cs
		}
	}
	return ClassStats{Class: name}
}

// NearestRank is the quantile rule used throughout the serving stats: the
// nearest-rank (ceil) selection q = sorted[ceil(p·n)-1] over a sorted,
// ascending window. Unlike floor indexing it never collapses a high
// quantile onto the median for small windows — for n < 100, P99 is the
// window maximum. p outside (0,1] is clamped. Histogram.Quantile applies
// the same rule over bucket counts.
func NearestRank(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
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
	return sorted[rank-1]
}

// classState is the mutable per-class slice of statsState.
type classState struct {
	nSubmitted  uint64
	nRejected   uint64
	nExpired    uint64
	nExpiredDis uint64
	nCompleted  uint64
	nFailed     uint64
	nDegraded   uint64
	lat         *Histogram
	queueWait   *Histogram
	stages      [3]time.Duration
}

// statsState is the mutable, mutex-guarded side of Stats. The aggregate
// fields and the per-class fields are updated together under the same
// lock, so per-class sums equal the aggregates in every snapshot.
type statsState struct {
	mu          sync.Mutex
	start       time.Time
	nSubmitted  uint64
	nRejected   uint64
	nExpired    uint64
	nExpiredDis uint64
	nCompleted  uint64
	nFailed     uint64
	nDegraded   uint64
	nBatches    uint64
	nDispatched uint64
	batchHist   []uint64
	busy        time.Duration
	service     time.Duration // EWMA backend time per image
	lat         *Histogram
	queueWait   *Histogram
	backendLat  *Histogram
	stages      [3]time.Duration // reliable, qualifier, cnn
	classes     [NumClasses]classState
}

func (st *statsState) init(maxBatch int) {
	st.start = time.Now()
	st.batchHist = make([]uint64, maxBatch)
	st.lat = NewHistogram()
	st.queueWait = NewHistogram()
	st.backendLat = NewHistogram()
	for c := range st.classes {
		st.classes[c].lat = NewHistogram()
		st.classes[c].queueWait = NewHistogram()
	}
}

func (st *statsState) submitted(c Class, degraded bool) {
	st.mu.Lock()
	st.nSubmitted++
	st.classes[c].nSubmitted++
	if degraded {
		st.nDegraded++
		st.classes[c].nDegraded++
	}
	st.mu.Unlock()
}

func (st *statsState) rejected(c Class) {
	st.mu.Lock()
	st.nRejected++
	st.classes[c].nRejected++
	st.mu.Unlock()
}

func (st *statsState) expired(c Class) {
	st.mu.Lock()
	st.nExpired++
	st.classes[c].nExpired++
	st.mu.Unlock()
}

func (st *statsState) expiredDispatched(c Class) {
	st.mu.Lock()
	st.nExpiredDis++
	st.classes[c].nExpiredDis++
	st.mu.Unlock()
}

// batchDone records one backend invocation of n images taking busy wall
// time, and folds busy/n into the rolling per-image service-time estimate.
func (st *statsState) batchDone(n int, busy time.Duration) {
	st.mu.Lock()
	st.nBatches++
	st.nDispatched += uint64(n)
	st.batchHist[n-1]++
	st.busy += busy
	perImage := busy / time.Duration(n)
	if st.service == 0 {
		st.service = perImage
	} else {
		st.service += (perImage - st.service) / 8
	}
	st.mu.Unlock()
}

// serviceEstimate returns the current EWMA backend time per image.
func (st *statsState) serviceEstimate() time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.service
}

func (st *statsState) failed(byClass [NumClasses]int) {
	st.mu.Lock()
	for c, n := range byClass {
		st.nFailed += uint64(n)
		st.classes[c].nFailed += uint64(n)
	}
	st.mu.Unlock()
}

// completed records the delivered requests of one batch: end-to-end
// latency plus the per-stage observations (queue wait, backend wall time)
// and the same observations under each request's class.
func (st *statsState) completed(timings []Timing) {
	st.mu.Lock()
	st.nCompleted += uint64(len(timings))
	for _, tm := range timings {
		lat := tm.Done.Sub(tm.Enqueued)
		wait := tm.Picked.Sub(tm.Enqueued)
		st.lat.Observe(lat)
		st.queueWait.Observe(wait)
		st.backendLat.Observe(tm.Done.Sub(tm.Dispatched))
		cs := &st.classes[tm.Class]
		cs.nCompleted++
		cs.lat.Observe(lat)
		cs.queueWait.Observe(wait)
	}
	st.mu.Unlock()
}

// stageTimes folds one batch's backend pipeline breakdown into the
// cumulative per-stage counters, apportioning each stage across the
// classes that rode the batch: reliable + qualifier time among the
// full-pipeline riders, CNN time among all riders, proportional to rider
// count with the integer remainder assigned to the last participating
// class — so the per-class stage sums equal the aggregates exactly.
func (st *statsState) stageTimes(stages [3]time.Duration, fullRiders, allRiders [NumClasses]int) {
	st.mu.Lock()
	for i := range stages {
		st.stages[i] += stages[i]
		riders := fullRiders
		if i == 2 { // CNN runs for every rider
			riders = allRiders
		}
		total := 0
		for _, n := range riders {
			total += n
		}
		if total == 0 || stages[i] == 0 {
			continue
		}
		var assigned time.Duration
		last := -1
		for c, n := range riders {
			if n > 0 {
				last = c
			}
		}
		for c, n := range riders {
			if n == 0 {
				continue
			}
			share := stages[i] * time.Duration(n) / time.Duration(total)
			if c == last {
				share = stages[i] - assigned
			}
			st.classes[c].stages[i] += share
			assigned += share
		}
	}
	st.mu.Unlock()
}

func (st *statsState) snapshot(depths, caps [NumClasses]int) Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	depth, capacity := 0, 0
	for c := range depths {
		depth += depths[c]
		capacity += caps[c]
	}
	s := Stats{
		Shards:            1,
		Submitted:         st.nSubmitted,
		Rejected:          st.nRejected,
		Expired:           st.nExpired,
		ExpiredDispatched: st.nExpiredDis,
		Completed:         st.nCompleted,
		Failed:            st.nFailed,
		Degraded:          st.nDegraded,
		Batches:           st.nBatches,
		BatchHist:         append([]uint64(nil), st.batchHist...),
		QueueDepth:        depth,
		QueueCap:          capacity,
		ServiceTime:       st.service,
		BackendBusy:       st.busy,
		Uptime:            time.Since(st.start),
	}
	if st.nBatches > 0 {
		s.MeanBatch = float64(st.nDispatched) / float64(st.nBatches)
	}
	s.LatencyHist = st.lat.Clone()
	s.QueueHist = st.queueWait.Clone()
	s.BackendHist = st.backendLat.Clone()
	s.StageReliable, s.StageQualifier, s.StageCNN = st.stages[0], st.stages[1], st.stages[2]
	if n := st.lat.Count(); n > 0 {
		s.LatencyCount = int(n)
		s.LatencyP50 = st.lat.Quantile(0.50)
		s.LatencyP99 = st.lat.Quantile(0.99)
		s.LatencyMax = st.lat.Max()
	}
	s.Classes = make([]ClassStats, NumClasses)
	for i, c := range Classes {
		src := &st.classes[c]
		cs := ClassStats{
			Class:             c.String(),
			Submitted:         src.nSubmitted,
			Rejected:          src.nRejected,
			Expired:           src.nExpired,
			ExpiredDispatched: src.nExpiredDis,
			Completed:         src.nCompleted,
			Failed:            src.nFailed,
			Degraded:          src.nDegraded,
			QueueDepth:        depths[c],
			QueueCap:          caps[c],
			StageReliable:     src.stages[0],
			StageQualifier:    src.stages[1],
			StageCNN:          src.stages[2],
		}
		cs.LatencyHist = src.lat.Clone()
		cs.QueueHist = src.queueWait.Clone()
		if n := src.lat.Count(); n > 0 {
			cs.LatencyCount = int(n)
			cs.LatencyP50 = src.lat.Quantile(0.50)
			cs.LatencyP99 = src.lat.Quantile(0.99)
			cs.LatencyMax = src.lat.Max()
		}
		s.Classes[i] = cs
	}
	return s
}
