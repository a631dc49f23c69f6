package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// frameLoop is the paper's product in its simplest deployment: one caller,
// one 32×32 frame at a time through HybridNetwork.Classify. The reliable
// stage does about nine tenths of the work; serve, shard and HTTP do none.
type frameLoop struct {
	seed int64
	set  *imageSet
	h    *core.HybridNetwork
	net  *nn.Sequential
	or   *oracle
	rng  *rand.Rand
	// mismatches counts traced frames whose decomposed pipeline and
	// Classify disagreed.
	mismatches int
}

func newFrameLoop(seed int64, _ string) workload { return &frameLoop{seed: seed} }

// warmFrames settles the allocator and page faults before timing.
const warmFrames = 50

func (f *frameLoop) setup(ctx context.Context) error {
	var err error
	if f.set, err = newImageSet(f.seed); err != nil {
		return err
	}
	if f.h, f.net, err = demoModel(); err != nil {
		return err
	}
	f.rng = rand.New(rand.NewSource(f.seed + 1))
	for i := 0; i < warmFrames; i++ {
		if _, err := f.h.Classify(f.set.imgs[i%imageCount]); err != nil {
			return fmt.Errorf("warm-up frame %d: %w", i, err)
		}
	}
	return ctx.Err()
}

func (f *frameLoop) verify(context.Context) (int, int, error) {
	var err error
	f.or, err = newOracle(f.h, f.set.imgs)
	return 0, 0, err
}

func (f *frameLoop) pids() ([]int, error) { return []int{os.Getpid()}, nil }
func (f *frameLoop) close() error         { return nil }

func (f *frameLoop) run(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	win := newWindow(d, []int{os.Getpid()})
	start := time.Now()
	for frame := 0; time.Since(start) < d; frame++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := f.rng.Intn(imageCount)
		img := f.set.imgs[idx]
		traced := rec != nil && frame%2 == 1
		var parts *core.Result
		if traced {
			r, err := f.decomposed(rec, frame, img)
			if err != nil {
				return nil, fmt.Errorf("frame %d, decomposed pipeline: %w", frame, err)
			}
			parts = &r
		}
		t0 := time.Now()
		res, err := f.h.Classify(img)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", frame, err)
		}
		if traced {
			rec.add("core.Classify", t0, t1, -1, frame)
			if !sameAnswer(*parts, res) {
				f.mismatches++
			}
		}
		why := f.or.full[idx].mismatchResult(res)
		if why != "" {
			fmt.Fprintf(os.Stderr, "frame-loop: frame %d (image %d): %s\n", frame, idx, why)
		}
		win.add(op{done: t1.Sub(start), lat: t1.Sub(t0), images: 1, ok: why == "", traced: traced})
	}
	return win, nil
}

// newEngine builds a reliable engine the way core does for the demo model:
// temporal DMR over ALUs from the factory, the paper's default bucket.
func newEngine(alus core.ALUFactory) (*reliable.Engine, error) {
	ops, err := core.ModeTemporalDMR.NewOps(alus)
	if err != nil {
		return nil, err
	}
	bucket, err := reliable.NewLeakyBucket(reliable.DefaultFactor, reliable.DefaultCeiling)
	if err != nil {
		return nil, err
	}
	return reliable.NewEngine(ops, bucket)
}

// decomposed runs one frame through the pipeline's layers by their public
// functions, with a span around each, and assembles the Result Classify
// should give for the same frame.
func (f *frameLoop) decomposed(rec *recorder, frame int, img *tensor.Tensor) (core.Result, error) {
	conv1, err := nn.FirstConv(f.net)
	if err != nil {
		return core.Result{}, err
	}
	t0 := time.Now()
	engine, err := newEngine(nil)
	if err != nil {
		return core.Result{}, err
	}
	ctx := nn.NewContext()
	t1 := time.Now()
	features, err := reliable.Conv2D(engine, img, conv1.Weight(), conv1.Bias().Data(),
		reliable.ConvSpec{Stride: conv1.Stride(), Pad: conv1.Pad()})
	if err != nil {
		return core.Result{}, err
	}
	t2 := time.Now()
	mag, err := core.EdgeMagnitudeFromChannels(features, f.h.Config().Pair)
	if err != nil {
		return core.Result{}, err
	}
	q, err := f.h.Qualifier().QualifyEdgeMap(mag)
	if err != nil {
		return core.Result{}, err
	}
	t3 := time.Now()
	logits, err := f.net.ForwardFrom(ctx, f.h.Config().DCNNDepth, features)
	if err != nil {
		return core.Result{}, err
	}
	probs, class, err := nn.SoftmaxArgmax(logits)
	if err != nil {
		return core.Result{}, err
	}
	t4 := time.Now()
	root := rec.add("frame", t0, t4, -1, frame)
	rec.add("reliable.Conv2D", t1, t2, root, frame)
	rec.add("shape.qualify", t2, t3, root, frame)
	rec.add("nn.ForwardFrom", t3, t4, root, frame)
	return core.Result{
		Class: class, Confidence: probs[class], Probs: probs,
		Decision: decide(f.h, class, q.Class), Qualifier: q, Stats: engine.Stats(),
	}, nil
}

// sameAnswer reports whether two results agree bit for bit on everything
// the hybrid contract promises.
func sameAnswer(a, b core.Result) bool {
	if a.Class != b.Class || a.Decision != b.Decision || a.Qualifier.Class != b.Qualifier.Class ||
		a.Stats != b.Stats || len(a.Probs) != len(b.Probs) {
		return false
	}
	for i := range a.Probs {
		if math.Float32bits(a.Probs[i]) != math.Float32bits(b.Probs[i]) {
			return false
		}
	}
	return true
}

func (f *frameLoop) layers(ctx context.Context, m metricSet, rec *recorder, full bool) error {
	conv := p50MS(rec.durations("reliable.Conv2D"))
	qualify := p50MS(rec.durations("shape.qualify"))
	tail := p50MS(rec.durations("nn.ForwardFrom"))
	classify := p50MS(rec.durations("core.Classify"))
	frame := p50MS(rec.durations("frame"))
	m.set("reliable.conv_ms", conv)
	m.set("shape.qualify_ms", qualify)
	m.set("nn.micro_tail_ms", tail)
	m.set("core.classify_ms", classify)
	m.set("core.self_ms", classify-conv-qualify-tail)
	m.set("core.decision_mismatches", float64(f.mismatches))
	// The pipeline rebuilt from public functions should cost what Classify
	// costs; if it does not, the attribution above is of something else.
	if classify > 0 {
		m.set("bench.stage_crosscheck_err", math.Abs(frame-classify)/classify)
	}
	ops := float64(f.or.full[0].ops)
	m.set("reliable.ops_per_frame", ops)
	m.set("reliable.ns_per_op", conv*1e6/ops)
	m.set("gtsrb.render_ms", ms(f.set.render)/imageCount)
	m.set("gtsrb.png_encode_ms", ms(f.set.encode)/imageCount)

	// Stop-sign images the qualifier confirms as octagons, over the whole
	// image set so that the share repeats exactly for a seed.
	stops, octagons := 0, 0
	for i, g := range f.or.full {
		if f.set.stop[i] {
			stops++
			if g.shape == shape.ClassOctagon {
				octagons++
			}
		}
	}
	m.set("shape.octagon_share", float64(octagons)/float64(stops))

	reps := 200
	if !full {
		reps = 10
	}
	conv1, err := nn.FirstConv(f.net)
	if err != nil {
		return err
	}
	spec := reliable.ConvSpec{Stride: conv1.Stride(), Pad: conv1.Pad()}
	weight, bias := conv1.Weight(), conv1.Bias().Data()

	// The unprotected convolution at the same shape: the paper's Table 1
	// denominator.
	native := make([]time.Duration, reps)
	for i := range native {
		t0 := time.Now()
		if _, err := reliable.NativeConv2D(f.set.imgs[i%imageCount], weight, bias, spec); err != nil {
			return err
		}
		native[i] = time.Since(t0)
	}
	m.set("reliable.native_conv_ms", p50MS(native))
	if n := p50MS(native); n > 0 {
		m.set("reliable.overhead_x", conv/n)
	}

	// Allocation per frame, over a block large enough to bury the cost of
	// reading the counters.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		if _, err := f.h.Classify(f.set.imgs[i%imageCount]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m.set("core.allocs_per_frame", float64(after.Mallocs-before.Mallocs)/float64(reps))
	m.set("core.kb_per_frame", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(reps))

	// A seeded segment on faulty ALUs, so that a fast path which taxes the
	// disagreement path shows. One ALU per frame, seeded by frame number:
	// the retry and trip counts repeat exactly.
	var retries, trips uint64
	faulty := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		alu, err := fault.NewTransient(1e-5, fault.BitFlip{Bit: -1}, rand.New(rand.NewSource(f.seed*1_000_003+int64(i))))
		if err != nil {
			return err
		}
		engine, err := newEngine(func() fault.ALU { return alu })
		if err != nil {
			return err
		}
		t0 := time.Now()
		_, err = reliable.Conv2D(engine, f.set.imgs[i%imageCount], weight, bias, spec)
		faulty = append(faulty, time.Since(t0))
		switch {
		case errors.Is(err, reliable.ErrBucketTripped):
			trips++
		case err != nil:
			return err
		}
		retries += engine.Stats().Retries
	}
	m.set("reliable.fault_retries", float64(retries))
	m.set("reliable.fault_bucket_trips", float64(trips))
	m.set("reliable.fault_conv_ms", p50MS(faulty))
	return nil
}
