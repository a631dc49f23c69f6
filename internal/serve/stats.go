package serve

import (
	"math"
	"sync"
	"time"
)

// Counts is the serving ledger: the request counters, queue occupancy,
// latency histograms and stage-busy totals of one service class — or, in
// a Stats, of all of them. Durations are nanoseconds in JSON.
//
// The scheduler keeps one Counts per class and nothing else per request: a
// Stats snapshot's aggregate Counts is the sum of its Classes, computed by
// the same Add that Merge uses across shards, so the aggregate and the
// per-class split cannot disagree.
//
// Every submitted request resolves to exactly one of Expired,
// ExpiredDispatched, Completed or Failed, so once the queue is drained
// Submitted equals their sum.
type Counts struct {
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

	// Queue occupancy (live). A class counts the requests waiting in its
	// own queue — a degraded budget request occupies (and is counted in)
	// the fast queue, while its Submitted/Completed/… accounting stays
	// under budget.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`

	// End-to-end latency (enqueue → response) since process start.
	// LatencyHist is the mergeable histogram; the quantile fields are
	// derived from it (nearest-rank, exact-to-bucket — see Histogram).
	LatencyCount int           `json:"latency_count"`
	LatencyP50   time.Duration `json:"latency_p50_ns"`
	LatencyP99   time.Duration `json:"latency_p99_ns"`
	LatencyMax   time.Duration `json:"latency_max_ns"`
	LatencyHist  *Histogram    `json:"latency_hist,omitempty"`
	// QueueHist is enqueue → picked into a batch, same bucket layout.
	QueueHist *Histogram `json:"queue_hist,omitempty"`

	// Cumulative backend pipeline stage time (per-worker wall time summed
	// across the pool — can exceed wall clock under parallelism, like CPU
	// time). A batch's reliable + qualifier time is apportioned among its
	// full-pipeline riders, its CNN time among all riders, by rider count;
	// the integer remainder, and any stage time no rider of that stage
	// could own, goes to the batch's last class. Zero when the backend
	// does not report stage timing.
	StageReliable  time.Duration `json:"stage_reliable_ns"`
	StageQualifier time.Duration `json:"stage_qualifier_ns"`
	StageCNN       time.Duration `json:"stage_cnn_ns"`
}

// newCounts returns an empty ledger with its histograms allocated.
func newCounts() Counts {
	return Counts{LatencyHist: NewHistogram(), QueueHist: NewHistogram()}
}

// Add folds o into c: counters, queue occupancy and stage totals sum,
// histograms merge exactly. The quantile fields are left stale until the
// owner derives them from the merged histogram.
func (c *Counts) Add(o Counts) {
	c.Submitted += o.Submitted
	c.Rejected += o.Rejected
	c.Expired += o.Expired
	c.ExpiredDispatched += o.ExpiredDispatched
	c.Completed += o.Completed
	c.Failed += o.Failed
	c.Degraded += o.Degraded
	c.QueueDepth += o.QueueDepth
	c.QueueCap += o.QueueCap
	c.LatencyHist.Merge(o.LatencyHist)
	c.QueueHist.Merge(o.QueueHist)
	c.StageReliable += o.StageReliable
	c.StageQualifier += o.StageQualifier
	c.StageCNN += o.StageCNN
}

// derive sets the latency summary fields from LatencyHist.
func (c *Counts) derive() {
	h := c.LatencyHist
	c.LatencyCount, c.LatencyMax = int(h.Count()), h.Max()
	c.LatencyP50, c.LatencyP99 = h.Quantile(0.50), h.Quantile(0.99)
}

// stages addresses the three stage totals in pipeline order.
func (c *Counts) stages() [3]*time.Duration {
	return [3]*time.Duration{&c.StageReliable, &c.StageQualifier, &c.StageCNN}
}

// Dispatched is the number of images the backend has been asked to classify:
// every terminal outcome downstream of a backend invocation.
func (c Counts) Dispatched() uint64 {
	return c.Completed + c.Failed + c.ExpiredDispatched
}

// sum is the aggregate ledger of a class split.
func sum(classes []ClassStats) Counts {
	total := newCounts()
	for _, cs := range classes {
		total.Add(cs.Counts)
	}
	total.derive()
	return total
}

// Stats is a point-in-time snapshot of a Scheduler's counters: the
// aggregate ledger (the sum of Classes), plus the batch-level fields that
// belong to no class.
type Stats struct {
	// Shards is how many schedulers this snapshot covers: 1 for a
	// Scheduler's own stats, the fleet size for a Merge aggregate
	// (unreachable shards merged as zero-valued stats still count).
	Shards int `json:"shards,omitempty"`

	Counts

	// Batching. The histogram and mean reflect what the backend saw
	// (dispatched sizes), including riders that later expired mid-flight.
	Batches   uint64   `json:"batches"`    // backend invocations
	MeanBatch float64  `json:"mean_batch"` // dispatched images over Batches
	BatchHist []uint64 `json:"batch_hist"` // BatchHist[i] = batches of size i+1

	// BackendHist is the wall time of each request's batch inside the
	// backend, same bucket layout as LatencyHist. Together with QueueHist
	// and the stage totals it is the substrate of the /metrics per-stage
	// breakdown.
	BackendHist *Histogram `json:"backend_hist,omitempty"`

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

// ClassStats is one service class's ledger.
type ClassStats struct {
	Class string `json:"class"`
	Counts
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

// statsState is the mutable, mutex-guarded side of Stats: one ledger per
// class — every request event updates exactly one — and the batch-level
// fields.
type statsState struct {
	mu          sync.Mutex
	start       time.Time
	classes     [NumClasses]Counts // queue occupancy is read live at snapshot time
	nBatches    uint64
	nDispatched uint64
	batchHist   []uint64
	busy        time.Duration
	service     time.Duration // EWMA backend time per image
	backendLat  *Histogram
}

func (st *statsState) init(maxBatch int) {
	st.start = time.Now()
	st.batchHist = make([]uint64, maxBatch)
	st.backendLat = NewHistogram()
	for c := range st.classes {
		st.classes[c] = newCounts()
	}
}

func (st *statsState) submitted(c Class, degraded bool) {
	st.mu.Lock()
	st.classes[c].Submitted++
	if degraded {
		st.classes[c].Degraded++
	}
	st.mu.Unlock()
}

func (st *statsState) rejected(c Class) {
	st.mu.Lock()
	st.classes[c].Rejected++
	st.mu.Unlock()
}

func (st *statsState) expired(c Class) {
	st.mu.Lock()
	st.classes[c].Expired++
	st.mu.Unlock()
}

func (st *statsState) expiredDispatched(c Class) {
	st.mu.Lock()
	st.classes[c].ExpiredDispatched++
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
		st.classes[c].Failed += uint64(n)
	}
	st.mu.Unlock()
}

// completed records the delivered requests of one batch under each
// request's class: end-to-end latency and queue wait, plus the batch's
// backend wall time.
func (st *statsState) completed(timings []Timing) {
	st.mu.Lock()
	for _, tm := range timings {
		cs := &st.classes[tm.Class]
		cs.Completed++
		cs.LatencyHist.Observe(tm.Done.Sub(tm.Enqueued))
		cs.QueueHist.Observe(tm.Picked.Sub(tm.Enqueued))
		st.backendLat.Observe(tm.Done.Sub(tm.Dispatched))
	}
	st.mu.Unlock()
}

// stageTimes books one batch's backend pipeline breakdown to the classes
// that rode it: reliable + qualifier time among the full-pipeline riders,
// CNN time among all riders, proportional to rider count. The integer
// remainder goes to the last participating class; stage time reported for
// a stage no rider ran (a backend timing reliable work in an all-fast
// batch — core never does) goes whole to the batch's last class. Nothing
// is dropped, so the class totals sum to the backend's report.
func (st *statsState) stageTimes(stages [3]time.Duration, fullRiders, allRiders [NumClasses]int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, d := range stages {
		riders := fullRiders
		if i == 2 { // CNN runs for every rider
			riders = allRiders
		}
		total, last := 0, -1
		for c, n := range riders {
			if n > 0 {
				total, last = total+n, c
			}
		}
		if last < 0 {
			for c, n := range allRiders {
				if n > 0 {
					last = c
				}
			}
		}
		var assigned time.Duration
		for c, n := range riders {
			if n > 0 && c != last {
				share := d * time.Duration(n) / time.Duration(total)
				*st.classes[c].stages()[i] += share
				assigned += share
			}
		}
		*st.classes[last].stages()[i] += d - assigned
	}
}

func (st *statsState) snapshot(depths, caps [NumClasses]int) Stats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := Stats{
		Shards:      1,
		Batches:     st.nBatches,
		BatchHist:   append([]uint64(nil), st.batchHist...),
		BackendHist: st.backendLat.Clone(),
		ServiceTime: st.service,
		BackendBusy: st.busy,
		Uptime:      time.Since(st.start),
		Classes:     make([]ClassStats, NumClasses),
	}
	if st.nBatches > 0 {
		s.MeanBatch = float64(st.nDispatched) / float64(st.nBatches)
	}
	for i, c := range Classes {
		cs := st.classes[c]
		cs.QueueDepth, cs.QueueCap = depths[c], caps[c]
		cs.LatencyHist, cs.QueueHist = cs.LatencyHist.Clone(), cs.QueueHist.Clone()
		cs.derive()
		s.Classes[i] = ClassStats{Class: c.String(), Counts: cs}
	}
	s.Counts = sum(s.Classes)
	return s
}
