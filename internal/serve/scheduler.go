// Package serve is the asynchronous serving front-end over the pooled
// inference stack: many goroutines submit single images, a Scheduler
// coalesces them into micro-batches and flushes each batch to a shared
// backend (core.BatchClassifier in production, anything implementing
// Backend in tests).
//
// Every request carries a service Class (guaranteed | fast | budget) that
// selects its queue, its execution pipeline and its overload behaviour.
// The scheduler keeps one bounded queue per class, ordered by deadline
// within the class (earliest context deadline first, FIFO among requests
// without one), and fills batches by smooth weighted round-robin across
// the non-empty classes (default weights 16:4:1), so a budget backlog can
// never starve guaranteed traffic. Mixed-class batches still reach the
// backend as ONE batch — the per-request pipeline split happens inside the
// backend (see PipelinedBackend), not by fragmenting the batch.
//
// The flush policy is the classic latency/occupancy trade: a batch is
// flushed as soon as it reaches MaxBatch images OR the oldest pulled image
// has waited MaxDelay since submission (queue time behind an in-flight
// batch counts), whichever comes first. MaxDelay == 0 degenerates to
// "flush whatever is instantaneously queued".
//
// Overload is class-dependent admission control, not buffering: guaranteed
// and fast requests against a full class queue fail immediately with
// ErrQueueFull, so callers can shed load or retry with backoff (RetryAfter
// turns the class's queue depth × EWMA service time into a backoff hint).
// A budget request against a full budget queue DEGRADES instead: it is
// re-admitted into the fast queue, runs the CNN-only pipeline, and its
// response is marked Degraded — the tier trades the reliability guarantee
// for availability. Per-request context deadlines are honoured both while
// queued (an expired request is dropped before it costs backend work) and
// while waiting for the batch to complete.
//
// # Concurrency contract
//
// Submit is safe from any number of goroutines; a single flusher goroutine
// owns batch formation and is the only caller of the backend. Every request
// resolves through a single-outcome CAS state machine
// (pending → dispatched → delivered | expired), so the delivery/expiry race
// lands each request in exactly one stats bucket.
//
// # Observability
//
// The scheduler keeps one ledger (Counts: counters, cumulative
// log-bucketed latency Histograms, stage totals) per class and updates
// exactly one per request event. Stats() snapshots them; its aggregate is
// their sum, the same step Merge takes across many schedulers — which is
// how the shard router computes fleet quantiles that match a
// single-process run bucket-for-bucket.
package serve

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Backend consumes the micro-batches the Scheduler forms. Implementations
// must return one result per image, in input order. The Scheduler issues
// calls from a single flusher goroutine, so implementations need not be
// safe for concurrent use (core.BatchClassifier is anyway).
type Backend interface {
	ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error)
}

// PipelinedBackend is the optional richer contract: pipes[i] selects which
// execution pipeline image i runs (core.PipelineFull for guaranteed and
// non-degraded budget riders, core.PipelineCNN for fast and degraded
// riders; nil pipes = all full) while the whole mixed batch still coalesces
// into one GEMM per layer, and the batch's per-stage wall-time breakdown
// comes back with the results. Backends that don't implement it run every
// rider through the full pipeline and report no stage times — correct, just
// without the fast path.
type PipelinedBackend interface {
	Backend
	ClassifyBatchPipelined(imgs []*tensor.Tensor, pipes []core.Pipeline) ([]core.Result, core.StageTimes, error)
}

// Timing is the per-request stage-timestamp breakdown SubmitTraced
// returns: the scheduler's contribution to a request trace. Timestamps are
// monotonic and ordered Enqueued ≤ Picked ≤ Dispatched ≤ Done; the HTTP
// edge turns their deltas into spans (queue wait, batch assembly, backend)
// and prepends/appends its own.
type Timing struct {
	// Enqueued is when Submit accepted the request into the queue.
	Enqueued time.Time
	// Picked is when the flusher pulled the request into a forming batch.
	Picked time.Time
	// Dispatched is when the request's batch was handed to the backend.
	Dispatched time.Time
	// Done is when the backend returned the batch.
	Done time.Time
	// BatchSize is how many live requests shared the batch.
	BatchSize int
	// Class is the service class the request was submitted under.
	Class Class
	// Degraded reports that this was a budget request re-admitted into the
	// fast (CNN-only) pipeline because the budget queue was full.
	Degraded bool
	// Stages is the batch-level backend pipeline breakdown (zero unless
	// the backend implements PipelinedBackend). Batch-level: shared by every
	// rider of the batch, and summed per-worker wall time under a parallel
	// pool.
	Stages core.StageTimes
}

var (
	// ErrQueueFull is the admission-control rejection: the request's class
	// queue is full and the request was not accepted (for budget requests,
	// only after degradation into the fast queue also failed). The caller
	// owns the retry policy; RetryAfter suggests the backoff.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed is returned by Submit after Shutdown has begun.
	ErrClosed = errors.New("serve: scheduler closed")
)

// classWeights are the smooth weighted-round-robin dispatch weights:
// guaranteed 16, fast 4, budget 1 — under full backlog a MaxBatch=8 batch
// carries ~6 guaranteed riders, and no class with queued work ever gets
// zero slots.
var classWeights = [NumClasses]int{16, 4, 1}

// Config parameterises a Scheduler.
type Config struct {
	// MaxBatch is the flush threshold (and the largest batch the backend
	// will see). Default 8.
	MaxBatch int
	// MaxDelay bounds how long the oldest queued request waits for the
	// batch to fill. 0 means flush immediately with whatever is queued.
	MaxDelay time.Duration
	// QueueSize bounds the number of accepted-but-unflushed requests PER
	// CLASS (the default for any ClassQueues entry left zero); Submit
	// fails with ErrQueueFull beyond it. Default 8 × MaxBatch.
	QueueSize int
	// ClassQueues optionally overrides the per-class queue bound; a zero
	// entry inherits QueueSize.
	ClassQueues [NumClasses]int
}

func (c Config) withDefaults() (Config, error) {
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	if c.MaxBatch < 1 {
		return c, fmt.Errorf("serve: MaxBatch %d must be >= 1", c.MaxBatch)
	}
	if c.MaxDelay < 0 {
		return c, fmt.Errorf("serve: negative MaxDelay %v", c.MaxDelay)
	}
	if c.QueueSize == 0 {
		c.QueueSize = 8 * c.MaxBatch
	}
	if c.QueueSize < 1 {
		return c, fmt.Errorf("serve: QueueSize %d must be >= 1", c.QueueSize)
	}
	for i := range c.ClassQueues {
		if c.ClassQueues[i] == 0 {
			c.ClassQueues[i] = c.QueueSize
		}
		if c.ClassQueues[i] < 1 {
			return c, fmt.Errorf("serve: ClassQueues[%s] %d must be >= 1", Class(i), c.ClassQueues[i])
		}
	}
	return c, nil
}

// Request lifecycle states. Every request resolves to exactly one terminal
// state — stateDelivered (the flusher committed a response to done) or
// stateExpired (the submitter claimed its context error) — via CAS, so a
// request is counted in the stats exactly once no matter how the
// delivery/expiry race falls.
const (
	statePending    int32 = iota // queued, not yet picked into a batch
	stateDispatched              // in a batch handed to the backend
	stateDelivered               // terminal: response committed by the flusher
	stateExpired                 // terminal: context error claimed by the submitter (or flusher pre-dispatch)
)

// request is one queued classification.
type request struct {
	img      *tensor.Tensor
	ctx      context.Context
	class    Class
	degraded bool // budget request re-admitted into the fast queue
	enq      time.Time
	picked   time.Time // set by the flusher when pulled into a batch
	// deadline orders the request within its class queue (EDF); seq
	// tie-breaks FIFO and orders deadline-less requests among themselves.
	deadline    time.Time
	hasDeadline bool
	seq         uint64
	// state is the single-outcome arbiter between the flusher delivering a
	// response and the submitter abandoning on context expiry.
	state atomic.Int32
	// done is buffered so the flusher never blocks on a caller that gave up.
	done chan response
}

// abandon is the submitter's side of the delivery/expiry race: it tries to
// claim the request's single outcome as "expired". It reports whether the
// claim won; on a lost race the response is committed (or imminently so) on
// r.done. The winner does the stats accounting: expired() if the request was
// still queued, expiredDispatched() if its batch had already been handed to
// the backend (the backend work is wasted, but the result is not delivered
// and not counted completed).
func (r *request) abandon(st *statsState) bool {
	if r.state.CompareAndSwap(statePending, stateExpired) {
		st.expired(r.class)
		return true
	}
	if r.state.CompareAndSwap(stateDispatched, stateExpired) {
		st.expiredDispatched(r.class)
		return true
	}
	return false
}

// pipeline is the execution pipeline the request's class (and degradation
// state) selects.
func (r *request) pipeline() core.Pipeline {
	if r.class == ClassFast || r.degraded {
		return core.PipelineCNN
	}
	return core.PipelineFull
}

type response struct {
	res    core.Result
	timing Timing
	err    error
}

// reqHeap orders one class's queue for dispatch: deadline-bearing requests
// first in earliest-deadline order, then deadline-less requests, FIFO (by
// admission sequence) within any tie.
type reqHeap []*request

func (h reqHeap) Len() int { return len(h) }
func (h reqHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.hasDeadline != b.hasDeadline {
		return a.hasDeadline
	}
	if a.hasDeadline && !a.deadline.Equal(b.deadline) {
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}
func (h reqHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *reqHeap) Push(x any)   { *h = append(*h, x.(*request)) }
func (h *reqHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

// Scheduler coalesces concurrent single-image submissions into
// micro-batches across per-class queues. Build with New, serve with
// Submit/SubmitTraced from any number of goroutines, stop with Shutdown.
type Scheduler struct {
	cfg     Config
	backend Backend

	// mu guards the queues, the WRR state, seq and closed.
	mu     sync.Mutex
	closed bool
	queues [NumClasses]reqHeap
	wrr    [NumClasses]int
	seq    uint64

	// notify is the flusher's wake-up: buffered so a signal is never lost
	// while the flusher is between waits.
	notify  chan struct{}
	drained chan struct{} // closed when the flusher has flushed everything

	stats statsState
}

// New starts a Scheduler (and its flusher goroutine) over backend.
func New(backend Backend, cfg Config) (*Scheduler, error) {
	if backend == nil {
		return nil, fmt.Errorf("serve: scheduler needs a backend")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:     cfg,
		backend: backend,
		notify:  make(chan struct{}, 1),
		drained: make(chan struct{}),
	}
	s.stats.init(cfg.MaxBatch)
	go s.run()
	return s, nil
}

// Config returns the normalised configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// signal wakes the flusher; the buffered channel absorbs a signal issued
// while the flusher is not waiting, so no wake-up is ever lost.
func (s *Scheduler) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Submit queues one guaranteed-class image and blocks until its batch
// completes, the context is done, or admission control rejects it. Safe for
// any number of concurrent callers. The context deadline both orders the
// request within its class queue (earliest first) and covers the whole
// request lifetime: a request that expires while still queued is dropped
// without costing backend work.
func (s *Scheduler) Submit(ctx context.Context, img *tensor.Tensor) (core.Result, error) {
	res, _, err := s.SubmitTraced(ctx, img, ClassGuaranteed)
	return res, err
}

// SubmitTraced is Submit under an explicit service class, plus the
// request's stage-timestamp breakdown — the scheduler's half of a request
// trace. The Timing is meaningful only on success; expired or rejected
// requests return a zero Timing.
func (s *Scheduler) SubmitTraced(ctx context.Context, img *tensor.Tensor, class Class) (core.Result, Timing, error) {
	if img == nil {
		return core.Result{}, Timing{}, fmt.Errorf("serve: nil image")
	}
	if !class.Valid() {
		return core.Result{}, Timing{}, fmt.Errorf("serve: invalid service class %v", class)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := &request{img: img, ctx: ctx, class: class, enq: time.Now(), done: make(chan response, 1)}
	if dl, ok := ctx.Deadline(); ok {
		r.deadline, r.hasDeadline = dl, true
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return core.Result{}, Timing{}, ErrClosed
	}
	q := class // the queue the request joins
	if len(s.queues[q]) >= s.cfg.ClassQueues[q] {
		if class == ClassBudget && len(s.queues[ClassFast]) < s.cfg.ClassQueues[ClassFast] {
			// Budget degradation: re-admit into the fast (CNN-only)
			// pipeline instead of shedding. Accounting stays under the
			// budget class; degraded is counted exactly once, here.
			q, r.degraded = ClassFast, true
		} else {
			s.mu.Unlock()
			s.stats.rejected(class)
			return core.Result{}, Timing{}, ErrQueueFull
		}
	}
	r.seq = s.seq
	s.seq++
	heap.Push(&s.queues[q], r)
	s.mu.Unlock()
	s.stats.submitted(class, r.degraded)
	s.signal()

	select {
	case resp := <-r.done:
		return resp.res, resp.timing, resp.err
	case <-ctx.Done():
		if r.abandon(&s.stats) {
			// Claimed: the flusher will skip this request (still queued) or
			// discard its result (already dispatched); either way it is
			// counted exactly once, as expired.
			return core.Result{}, Timing{}, ctx.Err()
		}
		// Lost the race: the flusher committed a response concurrently with
		// the context firing. Honour the committed outcome — it is the one
		// the stats counted.
		resp := <-r.done
		return resp.res, resp.timing, resp.err
	}
}

// RetryAfter estimates how long a rejected request of the given class
// should back off: the class's current queue depth × the EWMA per-image
// service time, floored at one second. The HTTP edge rounds it up into the
// Retry-After header, so clients behind a deep queue back off
// proportionally instead of hammering a fixed interval.
func (s *Scheduler) RetryAfter(class Class) time.Duration {
	if !class.Valid() {
		class = ClassGuaranteed
	}
	s.mu.Lock()
	depth := len(s.queues[class])
	s.mu.Unlock()
	d := time.Duration(depth) * s.stats.serviceEstimate()
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Shutdown stops admission (Submit fails with ErrClosed), drains every
// already-accepted request — including the in-flight batch — and returns
// when the flusher has exited, or with ctx's error if the deadline passes
// first. Idempotent.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
	}
	s.mu.Unlock()
	s.signal()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// tryPop removes and returns the next request to dispatch, or nil if every
// queue is empty. Across classes it advances the smooth weighted
// round-robin over the non-empty queues, so under backlog each batch slot
// honours classWeights; within a class the heap yields EDF order.
func (s *Scheduler) tryPop() *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.popLocked()
}

func (s *Scheduler) popLocked() *request {
	total := 0
	for c := range s.queues {
		if len(s.queues[c]) > 0 {
			total += classWeights[c]
		}
	}
	if total == 0 {
		return nil
	}
	best := -1
	for c := range s.queues {
		if len(s.queues[c]) == 0 {
			continue
		}
		s.wrr[c] += classWeights[c]
		if best < 0 || s.wrr[c] > s.wrr[best] {
			best = c
		}
	}
	s.wrr[best] -= total
	return heap.Pop(&s.queues[best]).(*request)
}

// next blocks until a request is available (returning it) or the scheduler
// is closed with every queue drained (returning nil).
func (s *Scheduler) next() *request {
	for {
		s.mu.Lock()
		r := s.popLocked()
		closed := s.closed
		s.mu.Unlock()
		if r != nil {
			return r
		}
		if closed {
			return nil
		}
		<-s.notify
	}
}

func (s *Scheduler) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// run is the flusher: it owns batch formation and is the only goroutine
// that calls the backend, so batches are naturally serialized.
func (s *Scheduler) run() {
	defer close(s.drained)
	for {
		r := s.next()
		if r == nil {
			return
		}
		r.picked = time.Now()
		batch := append(make([]*request, 0, s.cfg.MaxBatch), r)
		batch = s.collect(batch)
		s.flush(batch)
	}
}

// collect fills the batch up to MaxBatch, waiting until the batch's first
// request has been queued for MaxDelay — time already spent waiting behind
// an in-flight batch counts, so a request never pays queue-wait plus a full
// extra MaxDelay. Once the scheduler is closed the remaining queued
// requests drain without waiting on the timer.
func (s *Scheduler) collect(batch []*request) []*request {
	if s.cfg.MaxBatch <= 1 {
		return batch
	}
	for len(batch) < s.cfg.MaxBatch {
		r := s.tryPop()
		if r == nil {
			break
		}
		r.picked = time.Now()
		batch = append(batch, r)
	}
	if len(batch) >= s.cfg.MaxBatch || s.cfg.MaxDelay <= 0 {
		return batch
	}
	remaining := s.cfg.MaxDelay - time.Since(batch[0].enq)
	if remaining <= 0 {
		return batch
	}
	timer := time.NewTimer(remaining)
	defer timer.Stop()
	for {
		select {
		case <-s.notify:
			for len(batch) < s.cfg.MaxBatch {
				r := s.tryPop()
				if r == nil {
					break
				}
				r.picked = time.Now()
				batch = append(batch, r)
			}
			if len(batch) >= s.cfg.MaxBatch || s.isClosed() {
				return batch
			}
		case <-timer.C:
			return batch
		}
	}
}

// flush drops requests whose context already expired, runs the survivors
// through the backend as one batch, and delivers per-request responses.
// Every transition out of statePending/stateDispatched is a CAS against the
// submitter's abandon, so each request lands in exactly one stats bucket,
// and each outcome is booked before it is delivered: a caller whose Submit
// has returned finds its request in Stats.
func (s *Scheduler) flush(batch []*request) {
	live := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() != nil {
			if r.state.CompareAndSwap(statePending, stateExpired) {
				s.stats.expired(r.class)
				r.done <- response{err: r.ctx.Err()}
			}
			// On a lost CAS the submitter already claimed (and counted) the
			// expiry; nothing to deliver.
			continue
		}
		if !r.state.CompareAndSwap(statePending, stateDispatched) {
			// The context fired between the check above and the CAS and the
			// submitter claimed the request.
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	imgs := make([]*tensor.Tensor, len(live))
	pipes := make([]core.Pipeline, len(live))
	mixed := false
	for i, r := range live {
		imgs[i], pipes[i] = r.img, r.pipeline()
		mixed = mixed || pipes[i] != core.PipelineFull
	}
	if !mixed {
		pipes = nil // every rider full-pipeline
	}
	start := time.Now()
	results, stages, err := s.callBackend(imgs, pipes)
	if err == nil && len(results) != len(imgs) {
		err = fmt.Errorf("serve: backend returned %d results for %d images", len(results), len(imgs))
	}
	now := time.Now()
	// The batch-level accounting (invocation count, size histogram, busy
	// time) reflects what the backend actually saw, independent of how the
	// per-request outcomes resolve. Per-class stage attribution: reliable +
	// qualifier time belongs to the full-pipeline riders, CNN time to every
	// rider, apportioned by rider count.
	var fullRiders, allRiders [NumClasses]int
	for i, r := range live {
		allRiders[r.class]++
		if pipes == nil || pipes[i] == core.PipelineFull {
			fullRiders[r.class]++
		}
	}
	s.stats.batchDone(len(live), now.Sub(start))
	s.stats.stageTimes([3]time.Duration{stages.Reliable, stages.Qualifier, stages.CNN}, fullRiders, allRiders)
	// Book every rider this flush claims, then deliver to the same riders
	// (stateDelivered is final), the j-th claimed one taking timings[j].
	timings := make([]Timing, 0, len(live))
	var nFailed [NumClasses]int
	for _, r := range live {
		if !r.state.CompareAndSwap(stateDispatched, stateDelivered) {
			// The submitter expired the request mid-batch: the result is
			// discarded and its latency stays out of the histogram.
			continue
		}
		if err != nil {
			nFailed[r.class]++
			continue
		}
		timings = append(timings, Timing{
			Enqueued:   r.enq,
			Picked:     r.picked,
			Dispatched: start,
			Done:       now,
			BatchSize:  len(live),
			Class:      r.class,
			Degraded:   r.degraded,
			Stages:     stages,
		})
	}
	if err != nil {
		s.stats.failed(nFailed)
	} else {
		s.stats.completed(timings)
	}
	j := 0
	for i, r := range live {
		switch {
		case r.state.Load() != stateDelivered: // claimed by its submitter
		case err != nil:
			r.done <- response{err: err}
		default:
			r.done <- response{res: results[i], timing: timings[j]}
			j++
		}
	}
}

// callBackend is the one place the backend runs: through PipelinedBackend
// when implemented (pipes is nil unless the batch is mixed), else plain
// ClassifyBatch. A panic inside the backend is converted into that batch's
// error, so its riders fail like any other backend error and the flusher
// lives on to serve the next batch instead of taking the process down.
func (s *Scheduler) callBackend(imgs []*tensor.Tensor, pipes []core.Pipeline) (results []core.Result, stages core.StageTimes, err error) {
	defer func() {
		if p := recover(); p != nil {
			slog.Default().Error("backend panic", "batch", len(imgs), "panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			results, err = nil, fmt.Errorf("serve: backend panic: %v", p)
		}
	}()
	if pb, ok := s.backend.(PipelinedBackend); ok {
		return pb.ClassifyBatchPipelined(imgs, pipes)
	}
	results, err = s.backend.ClassifyBatch(imgs)
	return results, stages, err
}

// Stats snapshots the scheduler counters. Queue depths are read live; the
// rest is consistent at a single instant. Per-class depths count requests
// by the queue they wait in, so a degraded budget request counts toward
// the fast queue it actually occupies.
func (s *Scheduler) Stats() Stats {
	var depths, caps [NumClasses]int
	s.mu.Lock()
	for c := range s.queues {
		depths[c] = len(s.queues[c])
	}
	s.mu.Unlock()
	for c := range caps {
		caps[c] = s.cfg.ClassQueues[c]
	}
	return s.stats.snapshot(depths, caps)
}
