package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
)

const (
	alexBatch = 8
	// alexPool is how many distinct random images the batches draw from:
	// enough that no batch repeats, few enough to hold a golden answer each.
	alexPool    = 16
	alexClasses = 6
	alexWarm    = 3
)

// alexNetBatch runs the paper's real network shapes: batches of eight
// 3×227×227 images through the CNN-only pipeline of a pooled classifier.
// tensor and nn do all the work; reliable, shape, serve and shard do none.
type alexNetBatch struct {
	seed   int64
	net    *nn.Sequential
	bc     *core.BatchClassifier
	pool   []*tensor.Tensor
	golden [][]float32 // per pool image: per-sample Forward probabilities
	rng    *rand.Rand
	// stages sums the stage times the classifier reported over the last
	// window; the workload exists to keep the reliable one at zero.
	stages core.StageTimes
}

func newAlexNetBatch(seed int64, _ string) workload { return &alexNetBatch{seed: seed} }

func (a *alexNetBatch) setup(ctx context.Context) error {
	var err error
	if a.net, err = nn.NewAlexNet(alexClasses, rand.New(rand.NewSource(modelSeed))); err != nil {
		return err
	}
	conv1, err := nn.FirstConv(a.net)
	if err != nil {
		return err
	}
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		return err
	}
	h, err := core.NewHybridNetwork(cli.StandardHybridConfig(pair), a.net)
	if err != nil {
		return err
	}
	if a.bc, err = h.NewBatchClassifier(0); err != nil {
		return err
	}
	a.rng = rand.New(rand.NewSource(a.seed))
	a.pool = make([]*tensor.Tensor, alexPool)
	for i := range a.pool {
		a.pool[i] = tensor.MustNew(3, nn.AlexNetInputSize, nn.AlexNetInputSize)
		a.pool[i].FillUniform(a.rng, 0, 1)
	}
	for i := 0; i < alexWarm; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, _, err := a.classify(a.pool[:alexBatch]); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", i, err)
		}
	}
	return nil
}

func (a *alexNetBatch) classify(imgs []*tensor.Tensor) ([]core.Result, core.StageTimes, error) {
	pipes := make([]core.Pipeline, len(imgs))
	for i := range pipes {
		pipes[i] = core.PipelineCNN
	}
	return a.bc.ClassifyBatchPipelined(imgs, pipes)
}

// verify computes the golden answers by per-sample Forward and checks that
// the first batch reproduces them bit for bit.
func (a *alexNetBatch) verify(ctx context.Context) (int, int, error) {
	nctx := nn.NewContext()
	a.golden = make([][]float32, len(a.pool))
	for i, img := range a.pool {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		logits, err := a.net.Forward(nctx, img)
		if err != nil {
			return 0, 0, fmt.Errorf("golden image %d: %w", i, err)
		}
		if a.golden[i], _, err = nn.SoftmaxArgmax(logits); err != nil {
			return 0, 0, err
		}
	}
	idxs := make([]int, alexBatch)
	for i := range idxs {
		idxs[i] = i
	}
	res, _, err := a.classify(a.pool[:alexBatch])
	if err != nil {
		return 0, 0, err
	}
	if why := a.mismatch(idxs, res); why != "" {
		fmt.Fprintf(os.Stderr, "alexnet-batch: first batch: %s\n", why)
		return 1, 1, nil
	}
	return 1, 0, nil
}

// mismatch checks a batch's results against the golden answers: identical
// probabilities, no qualifier, no reliable work, and a safety class
// rejected because nothing qualified it.
func (a *alexNetBatch) mismatch(idxs []int, res []core.Result) string {
	if len(res) != len(idxs) {
		return fmt.Sprintf("%d results for %d images", len(res), len(idxs))
	}
	for j, r := range res {
		want := a.golden[idxs[j]]
		if len(r.Probs) != len(want) {
			return fmt.Sprintf("image %d: %d probabilities, want %d", idxs[j], len(r.Probs), len(want))
		}
		for c := range want {
			if math.Float32bits(r.Probs[c]) != math.Float32bits(want[c]) {
				return fmt.Sprintf("image %d: probability of class %d is %v, per-sample Forward gives %v",
					idxs[j], c, r.Probs[c], want[c])
			}
		}
		wantDecision := core.DecisionNotSafetyRelevant
		if r.Class == gtsrb.StopClass {
			wantDecision = core.DecisionRejected
		}
		if r.Decision != wantDecision || r.Qualifier.Class != 0 || r.Stats.Ops != 0 {
			return fmt.Sprintf("image %d: decision %s, qualifier %s, %d reliable ops; want %s, none, 0",
				idxs[j], r.Decision, r.Qualifier.Class, r.Stats.Ops, wantDecision)
		}
	}
	return ""
}

func (a *alexNetBatch) pids() ([]int, error) { return []int{os.Getpid()}, nil }
func (a *alexNetBatch) close() error         { return nil }

func (a *alexNetBatch) run(ctx context.Context, d time.Duration, rec *recorder) (*window, error) {
	win := newWindow(d, []int{os.Getpid()})
	a.stages = core.StageTimes{}
	start := time.Now()
	imgs := make([]*tensor.Tensor, alexBatch)
	idxs := make([]int, alexBatch)
	for batch := 0; time.Since(start) < d; batch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range imgs {
			idxs[i] = a.rng.Intn(alexPool)
			imgs[i] = a.pool[idxs[i]]
		}
		t0 := time.Now()
		res, st, err := a.classify(imgs)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", batch, err)
		}
		traced := rec != nil && batch%2 == 1
		if traced {
			rec.add("core.ClassifyBatchPipelined", t0, t1, -1, batch)
		}
		a.stages.Add(st)
		why := a.mismatch(idxs, res)
		if why != "" {
			fmt.Fprintf(os.Stderr, "alexnet-batch: batch %d: %s\n", batch, why)
		}
		win.add(op{done: t1.Sub(start), lat: t1.Sub(t0), images: alexBatch, ok: why == "", traced: traced})
	}
	return win, nil
}

// timeReps returns the median wall time of reps calls to fn, in seconds.
func timeReps(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

func (a *alexNetBatch) layers(ctx context.Context, m metricSet, rec *recorder, full bool) error {
	reps := 5
	if !full {
		reps = 1
	}
	if total := a.stages.Reliable + a.stages.Qualifier + a.stages.CNN; total > 0 {
		m.set("core.stage_reliable_share", float64(a.stages.Reliable)/float64(total))
		m.set("core.stage_qualifier_share", float64(a.stages.Qualifier)/float64(total))
		m.set("core.stage_cnn_share", float64(a.stages.CNN)/float64(total))
	}

	// tensor: raw GEMM at the five im2col shapes (filters × taps × output
	// positions of one image).
	rng := rand.New(rand.NewSource(a.seed))
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32()
		}
		return v
	}
	for i, s := range [][3]int{{96, 363, 3025}, {256, 2400, 729}, {384, 2304, 169}, {384, 3456, 169}, {256, 3456, 169}} {
		mm, k, n := s[0], s[1], s[2]
		dst, x, y := make([]float32, mm*n), fill(mm*k), fill(k*n)
		t := timeReps(reps, func() { tensor.Gemm(dst, x, y, mm, k, n) })
		m.set(fmt.Sprintf("tensor.gemm_conv%d_gflops", i+1), 2*float64(mm)*float64(k)*float64(n)/t/1e9)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// tensor: the pack-free Linear kernel on the network's own fc6 and fc7
	// weights. Bytes moved are computed from the operand sizes, not
	// measured: fc6 streams its 151 MB weight matrix once per call.
	dense := map[string]*nn.Dense{}
	for _, l := range a.net.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			dense[d.Name()] = d
		}
	}
	linear := func(d *nn.Dense, n int) (gflops, gbps float64) {
		x, dst := fill(n*d.In()), make([]float32, n*d.Out())
		t := timeReps(reps, func() { tensor.Linear(dst, x, d.Weight().Data(), d.Bias().Data(), n, d.In(), d.Out()) })
		flops := 2 * float64(n) * float64(d.In()) * float64(d.Out())
		bytes := 4 * float64(d.In()*d.Out()+d.Out()+n*d.In()+n*d.Out())
		return flops / t / 1e9, bytes / t / 1e9
	}
	g, b := linear(dense["fc6"], alexBatch)
	m.set("tensor.linear_fc6_n8_gflops", g)
	m.set("tensor.linear_fc6_n8_gbps", b)
	g, _ = linear(dense["fc6"], 1)
	m.set("tensor.linear_fc6_n1_gflops", g)
	g, _ = linear(dense["fc7"], alexBatch)
	m.set("tensor.linear_fc7_n8_gflops", g)
	{
		const c, hw, k, pad = 96, 27, 5, 2
		src, dst := fill(alexBatch*c*hw*hw), make([]float32, c*k*k*alexBatch*hw*hw)
		var err error
		t := timeReps(reps, func() { err = tensor.Im2colBatch(dst, src, alexBatch, c, hw, hw, k, 1, pad) })
		if err != nil {
			return err
		}
		m.set("tensor.im2col_conv2_n8_ms", t*1000)
	}

	// nn: each layer's ForwardBatch in sequence on one batch of eight, in
	// one goroutine, so the sum is the single-core cost of a batch.
	batch, err := tensor.Stack(a.pool[:alexBatch])
	if err != nil {
		return err
	}
	nctx := nn.NewContext()
	perLayer := map[string][]float64{}
	for r := 0; r < reps; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		x := batch
		group := map[string]float64{}
		for _, l := range a.net.Layers() {
			t0 := time.Now()
			if x, err = l.ForwardBatch(nctx, x); err != nil {
				return fmt.Errorf("layer %s: %w", l.Name(), err)
			}
			group[layerGroup(l.Name())] += ms(time.Since(t0))
		}
		for g, v := range group {
			perLayer[g] = append(perLayer[g], v)
		}
	}
	for g, v := range perLayer {
		m.setStat("nn."+g+"_ms", summarize(v))
	}

	// nn: the per-sample path beside the batch path at N=1, the twins the
	// ROADMAP wants reduced to one.
	one, err := tensor.Stack(a.pool[:1])
	if err != nil {
		return err
	}
	m.set("nn.alexnet_n1_ms", 1000*timeReps(reps, func() { _, err = a.net.ForwardBatch(nctx, one) }))
	if err != nil {
		return err
	}
	m.set("nn.alexnet_persample_ms", 1000*timeReps(reps, func() { _, err = a.net.Forward(nctx, a.pool[0]) }))
	return err
}

// layerGroup maps an AlexNet layer name to the metric it is booked under.
func layerGroup(name string) string {
	switch {
	case strings.HasPrefix(name, "conv"), strings.HasPrefix(name, "fc"):
		return name
	case strings.HasPrefix(name, "lrn"):
		return "lrn"
	case strings.HasPrefix(name, "pool"):
		return "pool"
	default:
		return "other" // relu, dropout, flatten
	}
}
