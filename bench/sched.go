package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// schedConfig is hybridnetd's default scheduler: batches of up to eight,
// two milliseconds to fill one, 64 queued per class.
var schedConfig = serve.Config{MaxBatch: 8, MaxDelay: 2 * time.Millisecond, QueueSize: 64}

// schedSubmitters equals MaxBatch, so a full batch is always on offer and
// the scheduler, not the load, decides how full batches run.
const schedSubmitters = 16

// schedSaturate drives the micro-batching scheduler in process with a
// standing backlog of mixed service classes. It uses the same reliable and
// nn layers as frame-loop, but batched, pooled over infer's workers, with
// full and CNN-only riders coalesced; shard and HTTP do nothing.
type schedSaturate struct {
	seed  int64
	set   *imageSet
	h     *core.HybridNetwork
	bc    *core.BatchClassifier
	sched *serve.Scheduler
	or    *oracle
	// traced holds what the last traced window's requests reported.
	traced []schedSample
	before serve.Stats
	after  serve.Stats
	span   time.Duration
}

type schedSample struct {
	img    int
	lat    time.Duration
	timing serve.Timing
}

func newSchedSaturate(seed int64, _ string) workload { return &schedSaturate{seed: seed} }

func (s *schedSaturate) setup(ctx context.Context) error {
	var err error
	if s.set, err = newImageSet(s.seed); err != nil {
		return err
	}
	if s.h, _, err = demoModel(); err != nil {
		return err
	}
	if s.bc, err = cli.NewBatchClassifier(s.h, 0, 0); err != nil {
		return err
	}
	if s.sched, err = serve.New(s.bc, schedConfig); err != nil {
		return err
	}
	// Three batches' worth of requests through every submitter.
	_, err = s.drive(ctx, 0, 3, nil)
	return err
}

func (s *schedSaturate) verify(context.Context) (int, int, error) {
	var err error
	s.or, err = newOracle(s.h, s.set.imgs)
	return 0, 0, err
}

func (s *schedSaturate) pids() ([]int, error) { return []int{os.Getpid()}, nil }

func (s *schedSaturate) close() error {
	if s.sched == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.sched.Shutdown(ctx)
}

func (s *schedSaturate) run(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	s.before = s.sched.Stats()
	win, err := s.drive(ctx, d, 0, rec)
	s.after = s.sched.Stats()
	return win, err
}

// drive runs the submitters, each a closed loop: submit, wait, check, next.
// It stops after d, or after perSubmitter requests each when that is set.
// Without an oracle (during warm-up) answers go unchecked.
func (s *schedSaturate) drive(ctx context.Context, d time.Duration, perSubmitter int, rec *recorder) (*window, error) {
	var (
		mu       sync.Mutex
		win      = newWindow(d, []int{os.Getpid()})
		samples  []schedSample
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for g := 0; g < schedSubmitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.seed*100 + int64(g)))
			for n := 0; ctx.Err() == nil; n++ {
				if perSubmitter > 0 && n >= perSubmitter || perSubmitter == 0 && time.Since(start) >= d {
					return
				}
				idx, class := rng.Intn(imageCount), classMix(rng)
				rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
				t0 := time.Now()
				res, tm, err := s.sched.SubmitTraced(rctx, s.set.imgs[idx], class)
				t1 := time.Now()
				cancel()
				why := ""
				switch {
				case err != nil:
					why = err.Error()
				case s.or != nil:
					why = s.or.pick(idx, class, tm.Degraded).mismatchResult(res)
				}
				mu.Lock()
				if why != "" && firstErr == nil {
					firstErr = fmt.Errorf("image %d as %s: %s", idx, class, why)
				}
				traced := rec != nil && n%2 == 1
				win.add(op{done: t1.Sub(start), lat: t1.Sub(t0), images: 1, ok: why == "", traced: traced})
				if traced && err == nil {
					samples = append(samples, schedSample{img: idx, lat: t1.Sub(t0), timing: tm})
					req := len(samples) - 1
					root := rec.add("serve.SubmitTraced", t0, t1, -1, req)
					rec.add("serve.queue", tm.Enqueued, tm.Picked, root, req)
					rec.add("serve.batch", tm.Picked, tm.Dispatched, root, req)
					rec.add("serve.backend", tm.Dispatched, tm.Done, root, req)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if rec != nil {
		s.traced, s.span = samples, time.Since(start)
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "sched-saturate: %d of %d requests failed, first: %v\n", win.failed(), win.attempted(), firstErr)
	}
	return win, ctx.Err()
}

func (s *schedSaturate) layers(ctx context.Context, m metricSet, rec *recorder, full bool) error {
	var queue, fill, backend []time.Duration
	perClass := map[serve.Class][]time.Duration{}
	for _, x := range s.traced {
		queue = append(queue, x.timing.Picked.Sub(x.timing.Enqueued))
		fill = append(fill, x.timing.Dispatched.Sub(x.timing.Picked))
		backend = append(backend, x.timing.Done.Sub(x.timing.Dispatched))
		perClass[x.timing.Class] = append(perClass[x.timing.Class], x.lat)
	}
	m.set("serve.queue_wait_ms_p50", p50MS(queue))
	m.set("serve.queue_wait_ms_p99", pMS(queue, 0.99))
	m.set("serve.batch_fill_ms_p50", p50MS(fill))
	m.set("serve.backend_ms_p50", p50MS(backend))
	m.set("serve.guaranteed_p99_ms", pMS(perClass[serve.ClassGuaranteed], 0.99))
	m.set("serve.fast_p99_ms", pMS(perClass[serve.ClassFast], 0.99))
	m.set("serve.budget_p99_ms", pMS(perClass[serve.ClassBudget], 0.99))

	// Counter deltas over the traced window, from the scheduler's own Stats.
	a, b := s.before, s.after
	batches := b.Batches - a.Batches
	m.set("serve.batches", float64(batches))
	if batches > 0 {
		m.set("serve.mean_batch", float64(b.Dispatched()-a.Dispatched())/float64(batches))
	}
	if s.span > 0 {
		m.set("serve.backend_utilisation", float64(b.BackendBusy-a.BackendBusy)/float64(s.span))
	}
	m.set("serve.rejected", float64(b.Rejected-a.Rejected))
	m.set("serve.expired", float64(b.Expired+b.ExpiredDispatched-a.Expired-a.ExpiredDispatched))
	m.set("serve.degraded", float64(b.Degraded-a.Degraded))
	program := [3]float64{
		float64(b.StageReliable - a.StageReliable),
		float64(b.StageQualifier - a.StageQualifier),
		float64(b.StageCNN - a.StageCNN),
	}
	program = shares(program)
	m.set("core.stage_reliable_share", program[0])
	m.set("core.stage_qualifier_share", program[1])
	m.set("core.stage_cnn_share", program[2])

	outside, err := s.replayStages(ctx, full)
	if err != nil {
		return fmt.Errorf("stage replay: %w", err)
	}
	var worst float64
	for i := range program {
		worst = max(worst, math.Abs(outside[i]-program[i]))
	}
	m.set("bench.stage_crosscheck_err", worst)

	m.set("gtsrb.render_ms", ms(s.set.render)/imageCount)
	m.set("gtsrb.png_encode_ms", ms(s.set.encode)/imageCount)
	if err := s.inferProbe(m, full); err != nil {
		return err
	}
	return submitOverhead(ctx, m, full)
}

func shares(v [3]float64) [3]float64 {
	total := v[0] + v[1] + v[2]
	if total == 0 {
		return [3]float64{}
	}
	return [3]float64{v[0] / total, v[1] / total, v[2] / total}
}

// replayStages times the three pipeline stages from outside, through the
// layers' public functions, on batches composed as the scheduler composed
// them in the traced window (requests that share a dispatch instant rode
// one batch). Its shares should match those the classifier reported about
// itself through ClassifyBatchTimed.
func (s *schedSaturate) replayStages(ctx context.Context, full bool) ([3]float64, error) {
	byBatch := map[time.Time][]schedSample{}
	for _, x := range s.traced {
		byBatch[x.timing.Dispatched] = append(byBatch[x.timing.Dispatched], x)
	}
	keys := make([]time.Time, 0, len(byBatch))
	for k := range byBatch {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
	limit := 40
	if !full {
		limit = 4
	}
	if len(keys) > limit {
		keys = keys[:limit]
	}

	net := s.h.Net()
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return [3]float64{}, err
	}
	spec := reliable.ConvSpec{Stride: conv1.Stride(), Pad: conv1.Pad()}
	depth := s.h.Config().DCNNDepth
	engine, err := newEngine(nil)
	if err != nil {
		return [3]float64{}, err
	}
	nctx := nn.NewContext()
	var stage [3]float64
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return [3]float64{}, err
		}
		var entries, fast []*tensor.Tensor
		for _, x := range byBatch[k] {
			img := s.set.imgs[x.img]
			if x.timing.Class == serve.ClassFast || x.timing.Degraded {
				fast = append(fast, img)
				continue
			}
			t0 := time.Now()
			engine.Bucket().Reset()
			features, err := reliable.Conv2D(engine, img, conv1.Weight(), conv1.Bias().Data(), spec)
			if err != nil {
				return [3]float64{}, err
			}
			t1 := time.Now()
			mag, err := core.EdgeMagnitudeFromChannels(features, s.h.Config().Pair)
			if err != nil {
				return [3]float64{}, err
			}
			if _, err := s.h.Qualifier().QualifyEdgeMap(mag); err != nil {
				return [3]float64{}, err
			}
			t2 := time.Now()
			stage[0] += float64(t1.Sub(t0))
			stage[1] += float64(t2.Sub(t1))
			entries = append(entries, features)
		}
		t0 := time.Now()
		if len(fast) > 0 {
			batch, err := tensor.Stack(fast)
			if err != nil {
				return [3]float64{}, err
			}
			out, err := net.ForwardBatchRange(nctx, 0, depth, batch)
			if err != nil {
				return [3]float64{}, err
			}
			for j := range fast {
				fm, err := out.Sample(j)
				if err != nil {
					return [3]float64{}, err
				}
				entries = append(entries, fm)
			}
		}
		batch, err := tensor.Stack(entries)
		if err != nil {
			return [3]float64{}, err
		}
		logits, err := net.ForwardBatchFrom(nctx, depth, batch)
		if err != nil {
			return [3]float64{}, err
		}
		for j := range entries {
			row, err := logits.Sample(j)
			if err != nil {
				return [3]float64{}, err
			}
			if _, _, err := nn.SoftmaxArgmax(row); err != nil {
				return [3]float64{}, err
			}
		}
		stage[2] += float64(time.Since(t0))
	}
	return shares(stage), nil
}

// inferProbe times eight full-pipeline images through the pooled classifier
// with every core and with one worker.
func (s *schedSaturate) inferProbe(m metricSet, full bool) error {
	reps := 7
	if !full {
		reps = 1
	}
	single, err := cli.NewBatchClassifier(s.h, 1, 0)
	if err != nil {
		return err
	}
	imgs := s.set.imgs[:8]
	var runErr error
	pooled := timeReps(reps, func() {
		if _, err := s.bc.ClassifyBatch(imgs); err != nil {
			runErr = err
		}
	})
	alone := timeReps(reps, func() {
		if _, err := single.ClassifyBatch(imgs); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return runErr
	}
	m.set("infer.batch8_ms", pooled*1000)
	if pooled > 0 {
		m.set("infer.pool_speedup", alone/pooled)
	}
	return nil
}

// noopBackend answers at once, leaving only the scheduler's own cost.
type noopBackend struct{}

func (noopBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	return make([]core.Result, len(imgs)), nil
}

// submitOverhead measures what one Submit costs when the backend costs
// nothing: one submitter, no fill delay, so queue hand-off and wake-ups only.
func submitOverhead(ctx context.Context, m metricSet, full bool) error {
	cfg := schedConfig
	cfg.MaxDelay = 0
	sched, err := serve.New(noopBackend{}, cfg)
	if err != nil {
		return err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sched.Shutdown(sctx)
	}()
	n := 2000
	if !full {
		n = 100
	}
	img := tensor.MustNew(1)
	lats := make([]time.Duration, n)
	for i := range lats {
		t0 := time.Now()
		if _, err := sched.Submit(ctx, img); err != nil {
			return err
		}
		lats[i] = time.Since(t0)
	}
	m.set("serve.submit_overhead_us", p50MS(lats)*1000)
	return nil
}
