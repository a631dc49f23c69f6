package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// fakeBackend records every batch it sees and answers each image with a
// Result whose Class encodes the image's identity, so tests can check
// per-request routing. When gate is non-nil every ClassifyBatch blocks
// until the gate yields (one token per call, or a close for "open forever").
type fakeBackend struct {
	gate chan struct{}

	// mu guards ids as well: a test may mint images while the scheduler's
	// goroutine is classifying earlier ones.
	mu      sync.Mutex
	ids     map[*tensor.Tensor]int
	batches [][]*tensor.Tensor
}

func newFakeBackend(gate chan struct{}) *fakeBackend {
	return &fakeBackend{gate: gate, ids: make(map[*tensor.Tensor]int)}
}

func (f *fakeBackend) img(id int) *tensor.Tensor {
	t := tensor.MustNew(1, 1, 1)
	f.mu.Lock()
	f.ids[t] = id
	f.mu.Unlock()
	return t
}

func (f *fakeBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, append([]*tensor.Tensor(nil), imgs...))
	results := make([]core.Result, len(imgs))
	for i, img := range imgs {
		results[i] = core.Result{Class: f.ids[img]}
	}
	return results, nil
}

func (f *fakeBackend) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	sizes := make([]int, len(f.batches))
	for i, b := range f.batches {
		sizes[i] = len(b)
	}
	return sizes
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func shutdownOK(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSchedulerCoalesces is the acceptance gate: N concurrent submissions
// against a real hybrid backend must be served in strictly fewer backend
// invocations than N with mean batch size > 1, and every per-request result
// must be identical to the sequential Classify path.
func TestSchedulerCoalesces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 32, Conv1Filters: 8, Conv1Kernel: 5,
		Conv2Filters: 8, Hidden: 16, Classes: 6, UseLRN: false,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHybridNetwork(core.Config{
		Mode: core.ModeTemporalDMR, Pair: pair,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}, net)
	if err != nil {
		t.Fatal(err)
	}

	gcfg, err := gtsrb.Config{Size: 32}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	specs := gtsrb.StandardClasses()
	imgs := make([]*tensor.Tensor, 3)
	want := make([]core.Result, len(imgs))
	for i := range imgs {
		img, err := gtsrb.Render(gtsrb.RandomParams(gcfg, specs[i], rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = img
		want[i], err = h.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
	}

	bc, err := h.NewBatchClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the backend until every request is queued, so coalescing is
	// deterministic rather than a race against backend speed.
	hold := make(chan struct{})
	backend := &holdingBackend{inner: bc, hold: hold}
	s, err := New(backend, Config{MaxBatch: 8, MaxDelay: 50 * time.Millisecond, QueueSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	var wg sync.WaitGroup
	wg.Add(n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			img := imgs[i%len(imgs)]
			got, err := s.Submit(context.Background(), img)
			if err != nil {
				errs <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
			ref := want[i%len(imgs)]
			if got.Class != ref.Class || got.Decision != ref.Decision ||
				got.Qualifier.Class != ref.Qualifier.Class || got.Stats != ref.Stats {
				errs <- fmt.Errorf("request %d: (%d,%v,%v,%+v) != sequential (%d,%v,%v,%+v)",
					i, got.Class, got.Decision, got.Qualifier.Class, got.Stats,
					ref.Class, ref.Decision, ref.Qualifier.Class, ref.Stats)
				return
			}
			errs <- nil
		}(i)
	}
	waitFor(t, "all requests queued", func() bool { return s.Stats().Submitted == n })
	close(hold)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	shutdownOK(t, s)

	st := s.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
	if st.Batches >= n {
		t.Fatalf("backend invocations %d not < %d submissions — no coalescing", st.Batches, n)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("mean batch %.2f not > 1", st.MeanBatch)
	}
	if backend.calls.Load() != int64(st.Batches) {
		t.Fatalf("stats batches %d != backend calls %d", st.Batches, backend.calls.Load())
	}
	t.Logf("coalescing: %d requests in %d batches (mean %.2f, p99 %v)",
		n, st.Batches, st.MeanBatch, st.LatencyP99)
}

// TestSchedulerZeroDelay: MaxDelay == 0 must flush immediately with
// whatever is queued — sequential submissions each ride a batch of one and
// never wait on a timer.
func TestSchedulerZeroDelay(t *testing.T) {
	backend := newFakeBackend(nil)
	s, err := New(backend, Config{MaxBatch: 64, MaxDelay: 0, QueueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		res, err := s.Submit(context.Background(), backend.img(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != i {
			t.Fatalf("request %d routed result %d", i, res.Class)
		}
	}
	shutdownOK(t, s)
	st := s.Stats()
	if st.Batches != n || st.BatchHist[0] != n {
		t.Fatalf("expected %d singleton batches, got batches=%d hist=%v", n, st.Batches, st.BatchHist)
	}
}

// TestSchedulerDeadlineWhileQueued: a request whose context expires while
// it waits in the queue returns ctx.Err() to the caller and is dropped
// before it costs backend work.
func TestSchedulerDeadlineWhileQueued(t *testing.T) {
	gate := make(chan struct{})
	backend := newFakeBackend(gate)
	s, err := New(backend, Config{MaxBatch: 1, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	// First request occupies the flusher inside the gated backend.
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), backend.img(0))
		firstDone <- err
	}()
	waitFor(t, "flusher to take first request", func() bool {
		return s.Stats().Submitted == 1 && s.Stats().QueueDepth == 0
	})
	// Second request waits in the queue past its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, backend.img(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline submit = %v, want DeadlineExceeded", err)
	}
	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	shutdownOK(t, s)
	if sizes := backend.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("backend saw batches %v, want just the live request", sizes)
	}
	if st := s.Stats(); st.Expired != 1 || st.Completed != 1 {
		t.Fatalf("expired=%d completed=%d, want 1/1", st.Expired, st.Completed)
	}
}

// TestSchedulerShutdownDrainsInFlight: Shutdown must stop admission
// immediately but wait for the in-flight batch and every queued request.
func TestSchedulerShutdownDrainsInFlight(t *testing.T) {
	gate := make(chan struct{})
	backend := newFakeBackend(gate)
	s, err := New(backend, Config{MaxBatch: 1, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan error, 1)
	queued := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), backend.img(0))
		inFlight <- err
	}()
	waitFor(t, "first request in flight", func() bool {
		return s.Stats().Submitted == 1 && s.Stats().QueueDepth == 0
	})
	go func() {
		_, err := s.Submit(context.Background(), backend.img(1))
		queued <- err
	}()
	waitFor(t, "second request queued", func() bool { return s.Stats().QueueDepth == 1 })

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(context.Background()) }()
	// Admission is closed while the batch is still in flight. Probes need
	// a deadline: one issued before Shutdown wins the race would otherwise
	// queue behind the gated backend forever.
	waitFor(t, "admission to close", func() bool {
		pctx, pcancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer pcancel()
		_, err := s.Submit(pctx, backend.img(2))
		return errors.Is(err, ErrClosed)
	})
	select {
	case err := <-shutdownErr:
		t.Fatalf("shutdown returned %v with a batch still in flight", err)
	default:
	}
	// ...and a bounded shutdown context times out rather than abandoning it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded shutdown = %v, want DeadlineExceeded", err)
	}
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued request dropped at shutdown: %v", err)
	}
	if st := s.Stats(); st.Completed != 2 {
		t.Fatalf("completed %d of 2 across shutdown", st.Completed)
	}
}

// TestSchedulerDelayCountsQueueTime: MaxDelay is measured from submission,
// so a request that already waited behind an in-flight batch longer than
// MaxDelay flushes immediately when the flusher frees — it does not pay a
// full extra MaxDelay on top of its queue time.
func TestSchedulerDelayCountsQueueTime(t *testing.T) {
	const delay = 500 * time.Millisecond
	gate := make(chan struct{})
	backend := newFakeBackend(gate)
	s, err := New(backend, Config{MaxBatch: 2, MaxDelay: delay, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	submit := func(id int) {
		img := backend.img(id)
		go func() {
			_, err := s.Submit(context.Background(), img)
			done <- err
		}()
	}
	// First batch fills instantly (MaxBatch=2) and blocks in the backend.
	submit(0)
	submit(1)
	waitFor(t, "first batch in flight", func() bool {
		return s.Stats().Submitted == 2 && s.Stats().QueueDepth == 0
	})
	// Third request queues behind it for longer than MaxDelay.
	submit(2)
	time.Sleep(delay + 100*time.Millisecond)
	gate <- struct{}{} // release first batch
	released := time.Now()
	gate <- struct{}{} // second batch: must be armed with an exhausted timer
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if waited := time.Since(released); waited >= delay {
		t.Fatalf("stale request waited %v more after the flusher freed — MaxDelay restarted", waited)
	}
	shutdownOK(t, s)
}

// TestSchedulerQueueFull: admission control rejects immediately when the
// bounded queue is full, without blocking the caller.
func TestSchedulerQueueFull(t *testing.T) {
	gate := make(chan struct{})
	backend := newFakeBackend(gate)
	s, err := New(backend, Config{MaxBatch: 1, QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		img := backend.img(i)
		go func() {
			_, err := s.Submit(context.Background(), img)
			done <- err
		}()
		if i == 0 {
			// Ensure the first request is the one in flight, so exactly
			// two occupy the queue.
			waitFor(t, "first request in flight", func() bool {
				return s.Stats().Submitted == 1 && s.Stats().QueueDepth == 0
			})
		}
	}
	waitFor(t, "queue to fill", func() bool { return s.Stats().QueueDepth == 2 })
	start := time.Now()
	if _, err := s.Submit(context.Background(), backend.img(9)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit against full queue = %v, want ErrQueueFull", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("rejection blocked for %v", waited)
	}
	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	shutdownOK(t, s)
	if st := s.Stats(); st.Rejected != 1 || st.Completed != 3 {
		t.Fatalf("rejected=%d completed=%d, want 1/3", st.Rejected, st.Completed)
	}
}

// TestSchedulerBackendError: a failing batch fails every rider with the
// backend's error; the scheduler keeps serving afterwards.
func TestSchedulerBackendError(t *testing.T) {
	boom := errors.New("boom")
	fb := newFakeBackend(nil)
	backend := &flakyBackend{inner: fb, err: boom, failFirst: 1}
	s, err := New(backend, Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), fb.img(0)); !errors.Is(err, boom) {
		t.Fatalf("submit over failing backend = %v, want boom", err)
	}
	res, err := s.Submit(context.Background(), fb.img(1))
	if err != nil || res.Class != 1 {
		t.Fatalf("recovery submit = (%d, %v), want (1, nil)", res.Class, err)
	}
	shutdownOK(t, s)
	if st := s.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Fatalf("failed=%d completed=%d, want 1/1", st.Failed, st.Completed)
	}
}

// TestSchedulerBackendPanicFailsOnlyThatBatch: a panic inside the backend
// fails the riders of that batch with an error, books them as failed, and
// leaves the flusher alive for the next batch — the process must not die
// with the batch. The per-class exactly-once accounting holds after every
// batch.
func TestSchedulerBackendPanicFailsOnlyThatBatch(t *testing.T) {
	fb := newFakeBackend(nil)
	backend := &panickyBackend{inner: fb, panicOn: 2}
	s, err := New(backend, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The flusher books a batch's outcomes just after delivering them, so
	// the invariant is awaited, not sampled.
	checkAccounting := func(batch int) {
		t.Helper()
		waitFor(t, fmt.Sprintf("exactly-once accounting after batch %d", batch), func() bool {
			for _, cs := range s.Stats().Classes {
				if cs.Submitted+cs.Rejected != cs.Completed+cs.Failed+cs.Rejected+cs.Expired+cs.ExpiredDispatched {
					return false
				}
			}
			return true
		})
	}
	classes := []Class{ClassGuaranteed, ClassFast, ClassBudget}
	for batch := 1; batch <= 3; batch++ {
		res, _, err := s.SubmitTraced(context.Background(), fb.img(batch), classes[batch-1])
		switch {
		case batch == 2:
			if err == nil || !strings.Contains(err.Error(), "backend panic") {
				t.Fatalf("batch 2 over panicking backend = %v, want a backend panic error", err)
			}
		case err != nil || res.Class != batch:
			t.Fatalf("batch %d = (%d, %v), want (%d, nil)", batch, res.Class, err, batch)
		}
		checkAccounting(batch)
	}
	shutdownOK(t, s)
	st := s.Stats()
	if st.Failed != 1 || st.Completed != 2 || st.Batches != 3 {
		t.Fatalf("failed=%d completed=%d batches=%d, want 1/2/3", st.Failed, st.Completed, st.Batches)
	}
	if f := st.Class(ClassFast).Failed; f != 1 {
		t.Errorf("fast class failed=%d, want 1 (the panicking batch's rider)", f)
	}
}

// TestSchedulerValidation covers constructor and Submit argument checks.
func TestSchedulerValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil backend accepted")
	}
	bad := []Config{
		{MaxBatch: -1},
		{MaxDelay: -time.Second},
		{QueueSize: -1},
	}
	fb := newFakeBackend(nil)
	for _, cfg := range bad {
		if _, err := New(fb, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	s, err := New(fb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config(); got.MaxBatch != 8 || got.QueueSize != 64 {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if _, err := s.Submit(context.Background(), nil); err == nil {
		t.Error("nil image accepted")
	}
	shutdownOK(t, s)
	shutdownOK(t, s) // idempotent
	if _, err := s.Submit(context.Background(), fb.img(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("post-shutdown submit = %v, want ErrClosed", err)
	}
}

// TestSchedulerExpiryInFlightSingleOutcome is the double-accounting
// regression: a request whose context expires while its batch is inside the
// backend must resolve to exactly one outcome. The caller gets ctx.Err(),
// the buffered result is discarded, and the stats count it as
// ExpiredDispatched — never Completed, and its latency never enters the
// histogram.
func TestSchedulerExpiryInFlightSingleOutcome(t *testing.T) {
	backend := &blockingBackend{
		entered: make(chan int, 4),
		release: make(chan struct{}),
	}
	s, err := New(backend, Config{MaxBatch: 1, QueueSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	submitErr := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, tensor.MustNew(1, 1, 1))
		submitErr <- err
	}()
	<-backend.entered // the request's batch is now inside the backend
	cancel()
	if err := <-submitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight expiry returned %v, want context.Canceled", err)
	}
	close(backend.release) // backend finishes; the flusher must discard the result

	// The scheduler keeps serving: a healthy follow-up completes normally.
	res, err := s.Submit(context.Background(), tensor.MustNew(1, 1, 1))
	<-backend.entered
	if err != nil || res.Class != 0 {
		t.Fatalf("follow-up submit = (%d, %v)", res.Class, err)
	}
	shutdownOK(t, s)

	st := s.Stats()
	if st.Submitted != 2 || st.ExpiredDispatched != 1 || st.Completed != 1 ||
		st.Expired != 0 || st.Failed != 0 {
		t.Fatalf("counters submitted=%d expired=%d expired_dispatched=%d completed=%d failed=%d, want 2/0/1/1/0",
			st.Submitted, st.Expired, st.ExpiredDispatched, st.Completed, st.Failed)
	}
	if st.LatencyCount != 1 {
		t.Fatalf("latency histogram holds %d samples; the expired request's latency leaked in", st.LatencyCount)
	}
	if st.Batches != 2 {
		t.Fatalf("batches %d, want 2 (the expired request's batch still ran)", st.Batches)
	}
}

// TestSchedulerAccountingUnderChurn hammers the delivery/expiry race from
// many goroutines (run under -race) and pins the global invariant: every
// submitted request lands in exactly one outcome bucket, the client-observed
// outcomes match the counters exactly, and the latency histogram only ever
// holds completed requests.
func TestSchedulerAccountingUnderChurn(t *testing.T) {
	backend := &slowBackend{delay: 500 * time.Microsecond}
	s, err := New(backend, Config{MaxBatch: 4, MaxDelay: 100 * time.Microsecond, QueueSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	var ok, ctxErr atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			// Deadlines straddle the backend delay so expiry lands before,
			// during, and after dispatch.
			timeout := time.Duration(i%5) * 300 * time.Microsecond
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			_, err := s.Submit(ctx, tensor.MustNew(1, 1, 1))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, context.DeadlineExceeded):
				ctxErr.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	shutdownOK(t, s)

	st := s.Stats()
	if st.Submitted != n {
		t.Fatalf("submitted %d of %d", st.Submitted, n)
	}
	total := st.Completed + st.Failed + st.Expired + st.ExpiredDispatched
	if total != n {
		t.Fatalf("outcome buckets sum to %d, want %d: %+v", total, n, st)
	}
	if got := uint64(ok.Load()); got != st.Completed {
		t.Fatalf("clients saw %d results but Completed=%d — a request was double-accounted", got, st.Completed)
	}
	if got := uint64(ctxErr.Load()); got != st.Expired+st.ExpiredDispatched {
		t.Fatalf("clients saw %d ctx errors but expired=%d+%d", got, st.Expired, st.ExpiredDispatched)
	}
	if uint64(st.LatencyCount) > st.Completed {
		t.Fatalf("latency histogram %d > completed %d", st.LatencyCount, st.Completed)
	}
	t.Logf("churn: %d completed, %d expired queued, %d expired in flight (%d batches)",
		st.Completed, st.Expired, st.ExpiredDispatched, st.Batches)
}

// blockingBackend signals batch entry and holds every call until released.
type blockingBackend struct {
	entered chan int
	release chan struct{}
}

func (b *blockingBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	b.entered <- len(imgs)
	<-b.release
	return make([]core.Result, len(imgs)), nil
}

// slowBackend spends a fixed delay per batch so in-flight expiry is common.
type slowBackend struct{ delay time.Duration }

func (b *slowBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	time.Sleep(b.delay)
	return make([]core.Result, len(imgs)), nil
}

// holdingBackend delegates after a one-time hold, counting invocations.
type holdingBackend struct {
	inner Backend
	hold  chan struct{}
	calls atomic.Int64
}

func (b *holdingBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	<-b.hold
	b.calls.Add(1)
	return b.inner.ClassifyBatch(imgs)
}

// panickyBackend panics on its panicOn-th call (1-based) and delegates
// otherwise.
type panickyBackend struct {
	inner   Backend
	panicOn int64
	calls   atomic.Int64
}

func (b *panickyBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	if b.calls.Add(1) == b.panicOn {
		panic("scripted backend panic")
	}
	return b.inner.ClassifyBatch(imgs)
}

// flakyBackend fails the first failFirst calls, then delegates.
type flakyBackend struct {
	inner     Backend
	err       error
	mu        sync.Mutex
	failFirst int
}

func (b *flakyBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	b.mu.Lock()
	fail := b.failFirst > 0
	if fail {
		b.failFirst--
	}
	b.mu.Unlock()
	if fail {
		return nil, b.err
	}
	return b.inner.ClassifyBatch(imgs)
}
