package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// seqBackend records the identity of each dispatched image, one batch at a
// time: every ClassifyBatch call announces the first image's id on entered
// and holds until released. With MaxBatch 1 this exposes the scheduler's
// exact dispatch order.
type seqBackend struct {
	ids     map[*tensor.Tensor]int
	entered chan int
	release chan struct{}
}

func newSeqBackend() *seqBackend {
	return &seqBackend{
		ids:     make(map[*tensor.Tensor]int),
		entered: make(chan int, 64),
		release: make(chan struct{}),
	}
}

func (b *seqBackend) img(id int) *tensor.Tensor {
	t := tensor.MustNew(1, 1, 1)
	b.ids[t] = id
	return t
}

func (b *seqBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	b.entered <- b.ids[imgs[0]]
	<-b.release
	results := make([]core.Result, len(imgs))
	for i, img := range imgs {
		results[i] = core.Result{Class: b.ids[img]}
	}
	return results, nil
}

// pipeRecordingBackend exposes the pipelined entry point and records the
// pipeline vector of every mixed batch, so tests can assert which pipeline
// each rider was dispatched under.
type pipeRecordingBackend struct {
	*fakeBackend
	mu    sync.Mutex
	pipes [][]core.Pipeline
}

func (p *pipeRecordingBackend) ClassifyBatchPipelined(imgs []*tensor.Tensor, pipes []core.Pipeline) ([]core.Result, core.StageTimes, error) {
	if pipes != nil { // nil pipes: an unmixed, all-full batch
		p.mu.Lock()
		p.pipes = append(p.pipes, append([]core.Pipeline(nil), pipes...))
		p.mu.Unlock()
	}
	results, err := p.fakeBackend.ClassifyBatch(imgs)
	return results, core.StageTimes{}, err
}

func (p *pipeRecordingBackend) recorded() [][]core.Pipeline {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([][]core.Pipeline, len(p.pipes))
	copy(out, p.pipes)
	return out
}

// stageBackend answers like fakeBackend but reports a fixed per-batch stage
// breakdown, mimicking the real pipeline's invariant that a batch with no
// full-pipeline rider spends zero reliable/qualifier time.
type stageBackend struct {
	*fakeBackend
	stages core.StageTimes
}

func (b *stageBackend) ClassifyBatchPipelined(imgs []*tensor.Tensor, pipes []core.Pipeline) ([]core.Result, core.StageTimes, error) {
	st := b.stages
	full := pipes == nil // nil pipes: every rider runs the full pipeline
	for _, p := range pipes {
		if p == core.PipelineFull {
			full = true
		}
	}
	if !full {
		st.Reliable, st.Qualifier = 0, 0
	}
	results, err := b.fakeBackend.ClassifyBatch(imgs)
	return results, st, err
}

// bucketIdx maps a duration onto the shared log-bucket layout; "within one
// bucket" in the fairness assertions means these indices differ by ≤ 1.
func bucketIdx(d time.Duration) int {
	bounds := HistogramBounds()
	for i, b := range bounds {
		if d <= b {
			return i
		}
	}
	return len(bounds)
}

// TestSchedulerDeadlineOrderWithinClass pins EDF dispatch inside one class
// queue: with the flusher plugged, requests submitted in the order
// (+30s, +10s, +20s, no deadline) must dispatch as (+10s, +20s, +30s,
// no deadline) — earliest deadline first, deadline-less last.
func TestSchedulerDeadlineOrderWithinClass(t *testing.T) {
	backend := newSeqBackend()
	s, err := New(backend, Config{MaxBatch: 1, MaxDelay: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)

	var wg sync.WaitGroup
	submit := func(id int, ttl time.Duration) {
		img := backend.img(id)
		ctx := context.Background()
		var cancel context.CancelFunc = func() {}
		if ttl > 0 {
			ctx, cancel = context.WithTimeout(ctx, ttl)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cancel()
			res, err := s.Submit(ctx, img)
			if err != nil {
				t.Errorf("submit %d: %v", id, err)
			} else if res.Class != id {
				t.Errorf("submit %d: routed result %d", id, res.Class)
			}
		}()
	}

	// Plug the flusher: request 0 is alone in the queue, gets popped, and
	// holds the backend while the test requests pile up behind it.
	submit(0, 0)
	if got := <-backend.entered; got != 0 {
		t.Fatalf("plug dispatch: got %d", got)
	}
	submit(1, 30*time.Second)
	submit(2, 10*time.Second)
	submit(3, 20*time.Second)
	submit(4, 0) // no deadline: sorts after every deadline-bearing request
	waitFor(t, "4 queued requests", func() bool { return s.Stats().QueueDepth == 4 })

	backend.release <- struct{}{} // let the plug finish
	want := []int{2, 3, 1, 4}
	for _, id := range want {
		if got := <-backend.entered; got != id {
			t.Fatalf("dispatch order: got %d, want %d (full order %v)", got, id, want)
		}
		backend.release <- struct{}{}
	}
	wg.Wait()
}

// TestSchedulerBudgetDegradesIntoFast pins the overload ladder for the
// budget class: full budget queue + room in fast → re-admitted as degraded
// (CNN-only pipeline, counted exactly once); both queues full → ErrQueueFull.
func TestSchedulerBudgetDegradesIntoFast(t *testing.T) {
	gate := make(chan struct{})
	backend := &pipeRecordingBackend{fakeBackend: newFakeBackend(gate)}
	s, err := New(backend, Config{
		MaxBatch:    4,
		QueueSize:   8,
		ClassQueues: [NumClasses]int{ClassFast: 2, ClassBudget: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)

	var wg sync.WaitGroup
	// Plug the flusher so queue occupancy is observable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Submit(context.Background(), backend.img(0)); err != nil {
			t.Errorf("plug: %v", err)
		}
	}()
	waitFor(t, "plug dispatched", func() bool { return s.Stats().QueueDepth == 0 && s.Stats().Submitted == 1 })

	var degradedTiming Timing
	submitBudget := func(id int, captureTiming bool) {
		img := backend.img(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, tm, err := s.SubmitTraced(context.Background(), img, ClassBudget)
			if err != nil {
				t.Errorf("budget %d: %v", id, err)
				return
			}
			if res.Class != id {
				t.Errorf("budget %d: routed result %d", id, res.Class)
			}
			if captureTiming {
				degradedTiming = tm
			}
		}()
	}

	submitBudget(1, false) // fills the budget queue (cap 1)
	waitFor(t, "budget queue full", func() bool { return s.Stats().Class(ClassBudget).QueueDepth == 1 })
	submitBudget(2, true) // degrades into fast
	waitFor(t, "first degradation", func() bool { return s.Stats().Class(ClassFast).QueueDepth == 1 })
	submitBudget(3, false) // degrades, fills fast (cap 2)
	waitFor(t, "second degradation", func() bool { return s.Stats().Class(ClassFast).QueueDepth == 2 })

	// Both queues full: shed with ErrQueueFull, not a third degradation.
	if _, _, err := s.SubmitTraced(context.Background(), backend.img(4), ClassBudget); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-full budget submit: err %v, want ErrQueueFull", err)
	}

	st := s.Stats()
	bc := st.Class(ClassBudget)
	if st.Degraded != 2 || bc.Degraded != 2 {
		t.Errorf("degraded counted %d aggregate / %d budget, want 2/2 (exactly once per degradation)", st.Degraded, bc.Degraded)
	}
	if st.Rejected != 1 || bc.Rejected != 1 {
		t.Errorf("rejected %d/%d, want 1/1", st.Rejected, bc.Rejected)
	}
	if fc := st.Class(ClassFast); fc.Submitted != 0 || fc.Degraded != 0 {
		t.Errorf("degraded accounting leaked into fast class: %+v", fc)
	}

	close(gate)
	wg.Wait()

	if tm := degradedTiming; !tm.Degraded || tm.Class != ClassBudget {
		t.Errorf("degraded timing = class %v degraded %v, want budget/true", tm.Class, tm.Degraded)
	}
	// The batch behind the plug was mixed (budget full rider + two degraded
	// CNN riders), so it must have gone through the pipelined entry point
	// with exactly one PipelineFull and two PipelineCNN.
	recorded := backend.recorded()
	if len(recorded) != 1 {
		t.Fatalf("pipelined batches %d, want 1 (plug batch is unmixed)", len(recorded))
	}
	var nFull, nCNN int
	for _, p := range recorded[0] {
		switch p {
		case core.PipelineFull:
			nFull++
		case core.PipelineCNN:
			nCNN++
		}
	}
	if nFull != 1 || nCNN != 2 {
		t.Errorf("mixed batch pipes %v, want 1 full + 2 cnn", recorded[0])
	}

	final := s.Stats()
	if final.Class(ClassBudget).Completed != 3 {
		t.Errorf("budget completed %d, want 3 (degraded requests stay budget-accounted)", final.Class(ClassBudget).Completed)
	}
}

// TestSchedulerWRRFairnessUnderBudgetFlood is the SLO-isolation acceptance
// gate: a saturating budget flood must not move the guaranteed class's p99
// by more than one log-bucket versus an uncontended run. The weighted
// round-robin keeps guaranteed riders on the next batch out regardless of
// budget backlog.
func TestSchedulerWRRFairnessUnderBudgetFlood(t *testing.T) {
	const (
		workers  = 4
		perWork  = 100
		flooders = 8
	)
	phase := func(flood bool) time.Duration {
		backend := &slowBackend{delay: 2 * time.Millisecond}
		s, err := New(backend, Config{MaxBatch: 8, MaxDelay: 5 * time.Millisecond, QueueSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var floodWG sync.WaitGroup
		if flood {
			img := tensor.MustNew(1, 1, 1)
			for i := 0; i < flooders; i++ {
				floodWG.Add(1)
				go func() {
					defer floodWG.Done()
					for !stop.Load() {
						if _, _, err := s.SubmitTraced(context.Background(), img, ClassBudget); err != nil {
							t.Errorf("budget flooder: %v", err)
							return
						}
					}
				}()
			}
		}
		var wg sync.WaitGroup
		img := tensor.MustNew(1, 1, 1)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perWork; j++ {
					if _, err := s.Submit(context.Background(), img); err != nil {
						t.Errorf("guaranteed submit: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		stop.Store(true)
		floodWG.Wait()
		st := s.Stats()
		shutdownOK(t, s)
		if flood && st.Rejected != 0 {
			t.Errorf("flood phase shed %d requests; the closed-loop flood should fit the budget queue", st.Rejected)
		}
		gc := st.Class(ClassGuaranteed)
		if gc.LatencyCount != workers*perWork {
			t.Fatalf("guaranteed completions %d, want %d", gc.LatencyCount, workers*perWork)
		}
		return gc.LatencyP99
	}

	quiet := phase(false)
	contended := phase(true)
	if q, c := bucketIdx(quiet), bucketIdx(contended); c > q+1 {
		t.Errorf("guaranteed p99 moved %v -> %v (bucket %d -> %d): budget flood displaced the guaranteed class by more than one log-bucket",
			quiet, contended, q, c)
	}
}

// TestSchedulerClassStatsSumsToAggregate churns a mixed-class workload —
// completions across every class, degradations, and expiries — and checks
// that the snapshot's aggregate is exactly the sum of its class ledgers.
func TestSchedulerClassStatsSumsToAggregate(t *testing.T) {
	backend := &stageBackend{
		fakeBackend: newFakeBackend(nil),
		stages:      core.StageTimes{Reliable: 3 * time.Millisecond, Qualifier: time.Millisecond, CNN: 7 * time.Millisecond},
	}
	s, err := New(backend, Config{MaxBatch: 8, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)

	var wg sync.WaitGroup
	id := 0
	submit := func(class Class, n int) {
		for i := 0; i < n; i++ {
			img := backend.img(id)
			id++
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := s.SubmitTraced(context.Background(), img, class); err != nil {
					t.Errorf("submit %v: %v", class, err)
				}
			}()
		}
	}
	submit(ClassGuaranteed, 6)
	submit(ClassFast, 5)
	submit(ClassBudget, 4)
	// Pre-cancelled contexts exercise the expiry counters; whether each one
	// lands in Expired or slips through to Completed, the class split must
	// still sum to the aggregate.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range Classes {
		img := backend.img(id)
		id++
		wg.Add(1)
		go func(c Class) {
			defer wg.Done()
			_, _, _ = s.SubmitTraced(cancelled, img, c) // outcome intentionally unasserted
		}(c)
	}
	wg.Wait()
	total := uint64(id)
	waitFor(t, "all requests resolved", func() bool {
		st := s.Stats()
		return st.Submitted == total && st.QueueDepth == 0 &&
			st.Completed+st.Expired+st.ExpiredDispatched+st.Failed == total
	})

	st := s.Stats()
	if len(st.Classes) != NumClasses {
		t.Fatalf("snapshot has %d class splits, want %d", len(st.Classes), NumClasses)
	}
	checkAggregateIsClassSum(t, "scheduler", st)
	if st.StageCNN == 0 || st.StageReliable == 0 {
		t.Errorf("stage totals reliable %v cnn %v, want both booked", st.StageReliable, st.StageCNN)
	}
}

// TestRetryAfter pins the backoff hint: class queue depth × the EWMA
// per-image service time, floored at one second.
func TestRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	backend := newFakeBackend(gate)
	s, err := New(backend, Config{MaxBatch: 4, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, s)

	if got := s.RetryAfter(ClassBudget); got != time.Second {
		t.Errorf("empty queue RetryAfter = %v, want the 1s floor", got)
	}

	var wg sync.WaitGroup
	// Plug the flusher so queued depth is stable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Submit(context.Background(), backend.img(0))
	}()
	waitFor(t, "plug dispatched", func() bool { return s.Stats().QueueDepth == 0 && s.Stats().Submitted == 1 })

	// Seed the service-time EWMA directly: one 8s single-image batch.
	s.stats.batchDone(1, 8*time.Second)
	for i := 1; i <= 3; i++ {
		img := backend.img(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = s.SubmitTraced(context.Background(), img, ClassBudget)
		}()
	}
	waitFor(t, "3 queued budget requests", func() bool { return s.Stats().Class(ClassBudget).QueueDepth == 3 })

	if got := s.RetryAfter(ClassBudget); got != 24*time.Second {
		t.Errorf("RetryAfter(budget) = %v, want 3 × 8s", got)
	}
	if got := s.RetryAfter(ClassGuaranteed); got != time.Second {
		t.Errorf("RetryAfter(guaranteed) = %v, want the 1s floor (empty queue)", got)
	}
	if got := s.RetryAfter(Class(200)); got != time.Second {
		t.Errorf("RetryAfter(invalid) = %v, want guaranteed's floor", got)
	}

	close(gate)
	wg.Wait()
}
