package repro_test

// Benchmark harness: one benchmark per table/figure of the paper, plus
// microbenchmarks for the substrates. See EXPERIMENTS.md for the recorded
// paper-vs-measured comparison.
//
// Run everything:   go test -bench=. -benchmem
// Paper-scale only: go test -bench=Full -benchmem   (tens of seconds)

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gtsrb"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/serve"
	"repro/internal/shape"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/train"
)

// table1Workload builds the convolution operands for the Table 1 benches.
func table1Workload(b *testing.B, full bool) (*tensor.Tensor, *tensor.Tensor, reliable.ConvSpec) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var in, filters *tensor.Tensor
	if full {
		in = tensor.MustNew(3, 227, 227)
		filters = tensor.MustNew(96, 3, 11, 11)
	} else {
		in = tensor.MustNew(3, 64, 64)
		filters = tensor.MustNew(16, 3, 11, 11)
	}
	in.FillUniform(rng, 0, 1)
	filters.FillUniform(rng, -0.1, 0.1)
	return in, filters, reliable.ConvSpec{Stride: 4}
}

func benchNative(b *testing.B, full bool) {
	in, filters, spec := table1Workload(b, full)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reliable.NativeConv2D(in, filters, nil, spec); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReliable(b *testing.B, full bool, mk func() (reliable.Ops, error)) {
	in, filters, spec := table1Workload(b, full)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		engine, err := reliable.NewEngine(ops, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reliable.Conv2D(engine, in, filters, nil, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1 — scaled workload (16 × 11×11×3 over 64×64×3).

func BenchmarkTable1_Native_Scaled(b *testing.B) { benchNative(b, false) }

func BenchmarkTable1_Alg1Multiplication_Scaled(b *testing.B) {
	benchReliable(b, false, func() (reliable.Ops, error) { return reliable.NewPlain(fault.Soft{}) })
}

func BenchmarkTable1_Alg2RedundantMultiplication_Scaled(b *testing.B) {
	benchReliable(b, false, func() (reliable.Ops, error) { return reliable.NewTemporalDMR(fault.Soft{}) })
}

// Table 1 — the paper's exact first AlexNet convolution layer
// (96 × 11×11×3 over 227×227×3, stride 4 — 105,415,200 MACs).

func BenchmarkTable1_Native_Full(b *testing.B) { benchNative(b, true) }

func BenchmarkTable1_Alg1Multiplication_Full(b *testing.B) {
	benchReliable(b, true, func() (reliable.Ops, error) { return reliable.NewPlain(fault.Soft{}) })
}

func BenchmarkTable1_Alg2RedundantMultiplication_Full(b *testing.B) {
	benchReliable(b, true, func() (reliable.Ops, error) { return reliable.NewTemporalDMR(fault.Soft{}) })
}

// Figure 3 — the radial-series + SAX pipeline on an angled stop sign
// (also the paper's "naive SAX completes in 1.942 s" reference point).

func BenchmarkFigure3_RadialSAX(b *testing.B) {
	img, err := gtsrb.AngledStopSign(96, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	q, err := shape.NewQualifier(shape.DefaultQualifierConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.QualifyImage(img)
		if err != nil {
			b.Fatal(err)
		}
		if res.Class != shape.ClassOctagon {
			b.Fatalf("qualifier lost the octagon: %v", res.Class)
		}
	}
}

// Figure 4 — the filter-replacement sweep (training + N evaluations), at
// test scale.

func BenchmarkFigure4_FilterSweep(b *testing.B) {
	cfg := experiments.Figure4Config{
		Micro: nn.MicroConfig{
			InputSize: 16, Conv1Filters: 6, Conv1Kernel: 3,
			Conv2Filters: 8, Hidden: 16, Classes: 6, UseLRN: false,
		},
		PerClass: 12, Epochs: 4, LR: 0.03, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation A — redundancy-mode coverage campaign.

func BenchmarkAblation_RedundancyCoverage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRedundancyCoverage(experiments.CoverageConfig{
			Trials: 5, TransientRate: 5e-4, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation B — rollback-distance comparison.

func BenchmarkAblation_RollbackDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRollbackAblation(experiments.RollbackConfig{
			Trials: 5, Rates: []float64{1e-4}, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Convolution kernels — the direct reference loop vs the im2col/GEMM path
// the layers run, on the paper's exact first AlexNet layer
// (96 × 11×11×3 over 227×227×3, stride 4).

func convBenchWorkload(b *testing.B) (*nn.Conv2D, *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(20))
	c, err := nn.NewConv2D("conv1", 3, nn.AlexNetConv1Filters, 11, 4, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.MustNew(3, nn.AlexNetInputSize, nn.AlexNetInputSize)
	x.FillUniform(rng, 0, 1)
	return c, x
}

func BenchmarkConvForward_Direct(b *testing.B) {
	c, x := convBenchWorkload(b)
	spec := reliable.ConvSpec{Stride: c.Stride(), Pad: c.Pad()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reliable.NativeConv2D(x, c.Weight(), c.Bias().Data(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvForward_Im2col(b *testing.B) {
	c, x := convBenchWorkload(b)
	batch, err := tensor.Pack([]*tensor.Tensor{x})
	if err != nil {
		b.Fatal(err)
	}
	ctx := nn.NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ForwardBatch(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// Batch-native forward — ForwardBatch (one GEMM per layer per micro-batch)
// swept over batch size, N=1 included; samples/s across the sweep is the
// batch effect. That effect is weight-traffic amortisation: a batched GEMM
// streams the layer's weights once for all N samples, so layers whose
// weights dwarf the cache (above all the fully connected layers) speed up
// with batch size, while conv1 — tiny weights, huge activations — does not.
// The recorded numbers are the benchmark's: nn.conv1_ms … nn.fc8_ms at N=8
// and nn.alexnet_n1_ms in bench/README.md.

// Batch-size sweeps of the weight-carrying layers, forward and backward.
var (
	forwardSweep  = []int{1, 4, 8, 16, 32}
	backwardSweep = []int{1, 4, 8, 16}
)

func benchForwardBatchLayer(b *testing.B, layer nn.Layer, batches []int, inShape ...int) {
	rng := rand.New(rand.NewSource(30))
	for _, batch := range batches {
		packed := tensor.MustNew(append([]int{batch}, inShape...)...)
		packed.FillUniform(rng, 0, 1)
		b.Run(fmt.Sprintf("n=%d", batch), func(b *testing.B) {
			ctx := nn.NewContext()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := layer.ForwardBatch(ctx, packed); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// AlexNet conv1: 96 11×11×3 filters over 227×227, stride 4 — huge spatial
// extent, weights fit in L2.
func BenchmarkForwardBatch_AlexNetConv1(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	conv, err := nn.NewConv2D("conv1", 3, nn.AlexNetConv1Filters, 11, 4, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchForwardBatchLayer(b, conv, forwardSweep, 3, nn.AlexNetInputSize, nn.AlexNetInputSize)
}

// AlexNet conv2: 256 5×5×96 filters over 27×27 — 2.4 MB of weights, the
// heaviest conv layer of the network.
func BenchmarkForwardBatch_AlexNetConv2(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	conv, err := nn.NewConv2D("conv2", 96, 256, 5, 1, 2, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchForwardBatchLayer(b, conv, forwardSweep, 96, 27, 27)
}

// AlexNet conv3: 384 3×3×256 filters over 13×13 — 3.5 MB of weights against
// 169 output positions per sample, the weight-bound regime where batching
// pays.
func BenchmarkForwardBatch_AlexNetConv3(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	conv, err := nn.NewConv2D("conv3", 256, 384, 3, 1, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchForwardBatchLayer(b, conv, forwardSweep, 256, 13, 13)
}

// AlexNet fc6: 4096×9216 — 151 MB of weights, pure weight streaming; a
// batch pays it once instead of once per sample.
func BenchmarkForwardBatch_AlexNetFC6(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	fc, err := nn.NewDense("fc6", 256*6*6, 4096, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchForwardBatchLayer(b, fc, forwardSweep, 256*6*6)
}

// Whole-network batched forward on the AlexNet-shaped micro net — the
// end-to-end compute effect MaxBatch now buys the serving tier.
func BenchmarkForwardBatch_MicroNet(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 32, Conv1Filters: 16, Conv1Kernel: 5,
		Conv2Filters: 16, Hidden: 48, Classes: 6, UseLRN: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchForwardBatchLayer(b, net, forwardSweep, 3, 32, 32) // Sequential implements Layer
}

// AlexNet lrn1: 96×55×55, the larger of the network's two normalisation
// sites and, with no weights to amortise, flat in the batch size — n=1 and
// n=8 are the same per-sample kernel (nn.lrn_ms in bench/ is both sites at
// n=8).
func BenchmarkLRNForward(b *testing.B) {
	benchForwardBatchLayer(b, nn.NewAlexNetLRN("lrn1"), []int{1, 8}, 96, 55, 55)
}

// Batch-native backward — one training step (forward + backward, since the
// backward pass consumes the forward's cached activations) through
// ForwardBatch/BackwardBatch, swept over batch size, N=1 included. dW and
// dX are one GemmTB/GemmTA per layer over the whole batch, so the weight
// matrices stream once per batch in each direction; the effect mirrors the
// forward benches but roughly doubled, because backward touches the weights
// twice (dW and dX). Training is research tooling and stays on
// `go test -bench` (bench/README.md, "Who uses this system").

func benchBackwardBatchLayer(b *testing.B, layer nn.Layer, batches, inShape, outShape []int) {
	rng := rand.New(rand.NewSource(40))
	for _, batch := range batches {
		packedX := tensor.MustNew(append([]int{batch}, inShape...)...)
		packedX.FillUniform(rng, 0, 1)
		packedG := tensor.MustNew(append([]int{batch}, outShape...)...)
		packedG.FillUniform(rng, -1, 1)
		b.Run(fmt.Sprintf("n=%d", batch), func(b *testing.B) {
			ctx := nn.NewContext()
			ctx.SetTraining(true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := layer.ForwardBatch(ctx, packedX); err != nil {
					b.Fatal(err)
				}
				if _, err := layer.BackwardBatch(ctx, packedG); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// AlexNet conv3 backward: 384 3×3×256 filters over 13×13 — the weight-bound
// conv regime; backward streams the 3.5 MB of weights for both dW and dX.
func BenchmarkBackwardBatch_AlexNetConv3(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	conv, err := nn.NewConv2D("conv3", 256, 384, 3, 1, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchBackwardBatchLayer(b, conv, backwardSweep, []int{256, 13, 13}, []int{384, 13, 13})
}

// AlexNet fc6 backward: 4096×9216 — 151 MB of weights, read twice per
// backward (dW accumulate + dX), the layer where batching pays most.
func BenchmarkBackwardBatch_AlexNetFC6(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	fc, err := nn.NewDense("fc6", 256*6*6, 4096, rng)
	if err != nil {
		b.Fatal(err)
	}
	benchBackwardBatchLayer(b, fc, backwardSweep, []int{256 * 6 * 6}, []int{4096})
}

// AlexNet lrn1 backward (forward + backward, like its neighbours): the
// channel-major derivative over the float32 d / d^-β caches.
func BenchmarkLRNBackward(b *testing.B) {
	shape := []int{96, 55, 55}
	benchBackwardBatchLayer(b, nn.NewAlexNetLRN("lrn1"), []int{1, 8}, shape, shape)
}

// End-to-end training throughput — Trainer.Fit over one epoch of synthetic
// GTSRB on an fc-heavy micro-AlexNet (small convs, 4096-wide hidden layer:
// the 9 MB fc1 weight matrix dominates, the regime where AlexNet spends
// its parameters), whole-shard batches (SubBatch 0, the default) against
// batches of one (SubBatch 1). Mini-batch 16, so the default runs whole
// 16-sample GEMM sweeps per layer per direction. Same seeds, same update
// rule, same code path; only the batch size differs.
func BenchmarkTrainerFit(b *testing.B) {
	cfg := nn.MicroConfig{
		InputSize: 32, Conv1Filters: 8, Conv1Kernel: 5,
		Conv2Filters: 16, Hidden: 4096, Classes: 6, UseLRN: false,
	}
	ds, err := gtsrb.Generate(gtsrb.Config{Size: 32, PerClass: 8},
		rand.New(rand.NewSource(51)))
	if err != nil {
		b.Fatal(err)
	}
	for _, subBatch := range []int{0, 1} {
		b.Run(fmt.Sprintf("subbatch=%d", subBatch), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net, err := nn.NewMicroAlexNet(cfg, rand.New(rand.NewSource(50)))
				if err != nil {
					b.Fatal(err)
				}
				opt, err := train.NewSGD(0.03, 0.9, 1e-4)
				if err != nil {
					b.Fatal(err)
				}
				tr := &train.Trainer{
					Net: net, Opt: opt, BatchSize: 16, Epochs: 1,
					SubBatch: subBatch, Rng: rand.New(rand.NewSource(52)),
				}
				b.StartTimer()
				if _, err := tr.Fit(ds); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ds.Len()*b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// Intra-GEMM parallelism — a single conv3- or fc6-shaped GEMM split across
// gemm workers (tensor.SetGemmWorkers, the -gemm-workers axis of the
// daemons). This is the latency lever: same work, fewer wall-clock
// milliseconds per layer, results bit-identical. Scaling requires real
// cores — at GOMAXPROCS=1 the splits serialize and the sweep should be
// flat, which is exactly why the flag defaults to off.
func BenchmarkGemmWorkers(b *testing.B) {
	defer tensor.SetGemmWorkers(1)
	rng := rand.New(rand.NewSource(37))
	shapes := []struct {
		name    string
		m, k, n int
	}{
		// conv3 batched at n=8: 384 filters × (256·3·3) over 8×13×13 positions.
		{"conv3_n8", 384, 2304, 1352},
		// fc6 batched at n=8: 8 samples × 9216 inputs × 4096 outputs.
		{"fc6_n8", 8, 9216, 4096},
	}
	for _, s := range shapes {
		a := make([]float32, s.m*s.k)
		bb := make([]float32, s.k*s.n)
		for i := range a {
			a[i] = rng.Float32()
		}
		for i := range bb {
			bb[i] = rng.Float32()
		}
		dst := make([]float32, s.m*s.n)
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("shape=%s/gemm-workers=%d", s.name, workers), func(b *testing.B) {
				tensor.SetGemmWorkers(workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.Gemm(dst, a, bb, s.m, s.k, s.n)
				}
				flops := 2 * float64(s.m) * float64(s.k) * float64(s.n)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BatchEngine throughput — shared-weight inference over a worker pool, on
// an AlexNet-shaped micro network. One benchmark iteration classifies the
// whole batch; throughput in samples/op scales with workers until the GEMM
// memory bandwidth saturates.

func BenchmarkBatchEngine_Throughput(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 32, Conv1Filters: 16, Conv1Kernel: 5,
		Conv2Filters: 16, Hidden: 48, Classes: 6, UseLRN: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	xs := make([]*tensor.Tensor, batch)
	for i := range xs {
		x := tensor.MustNew(3, 32, 32)
		x.FillUniform(rng, 0, 1)
		xs[i] = x
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, err := infer.New(net, infer.Config{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.PredictBatched(xs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// Scheduler throughput — the async serving path end to end: concurrent
// submitters → micro-batching scheduler → persistent BatchClassifier pool.
// The sweep crosses the flush threshold with the delay bound; samples/op
// shows the occupancy/latency trade (imgs/batch is the realised mean batch
// size). Zero delay only coalesces under concurrent load; 2ms trades that
// much queueing latency for fuller batches.

func BenchmarkScheduler_Throughput(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 32, Conv1Filters: 8, Conv1Kernel: 5,
		Conv2Filters: 8, Hidden: 16, Classes: 6, UseLRN: false,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	h, err := core.NewHybridNetwork(core.Config{
		Wiring: core.WiringBifurcated, Mode: core.ModeTemporalDMR, Pair: pair,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}, net)
	if err != nil {
		b.Fatal(err)
	}
	img, err := gtsrb.AngledStopSign(32, rng)
	if err != nil {
		b.Fatal(err)
	}
	for _, maxBatch := range []int{1, 8, 32} {
		for _, delay := range []time.Duration{0, 500 * time.Microsecond, 2 * time.Millisecond} {
			b.Run(fmt.Sprintf("batch=%d/delay=%s", maxBatch, delay), func(b *testing.B) {
				bc, err := h.NewBatchClassifier(0)
				if err != nil {
					b.Fatal(err)
				}
				s, err := serve.New(bc, serve.Config{
					MaxBatch: maxBatch, MaxDelay: delay, QueueSize: 1024,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.SetParallelism(4) // concurrent submitters per core
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := s.Submit(context.Background(), img); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.StopTimer()
				st := s.Stats()
				b.ReportMetric(float64(st.Completed)/b.Elapsed().Seconds(), "samples/s")
				b.ReportMetric(st.MeanBatch, "imgs/batch")
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s.Shutdown(ctx); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// Latency quantile estimation — the mergeable log-bucketed serve.Histogram
// against the fixed sorted-window buffer it replaced. Observe is the
// per-request cost; Quantile is the per-/stats-snapshot cost (the window
// pays a copy+sort per snapshot, the histogram a clone plus two bucket
// walks). The histogram also merges across shards exactly, which the
// window never could.

var benchLatencies = func() []time.Duration {
	rng := rand.New(rand.NewSource(9))
	out := make([]time.Duration, 4096)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
	}
	return out
}()

func BenchmarkLatencyObserve_Histogram(b *testing.B) {
	h := serve.NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(benchLatencies[i%len(benchLatencies)])
	}
}

func BenchmarkLatencyObserve_Window(b *testing.B) {
	window := make([]time.Duration, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		window[i%len(window)] = benchLatencies[i%len(benchLatencies)]
	}
}

func BenchmarkLatencyQuantile_Histogram(b *testing.B) {
	h := serve.NewHistogram()
	for _, d := range benchLatencies[:1024] {
		h.Observe(d)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		snap := h.Clone() // what a stats snapshot pays
		if snap.Quantile(0.50) == 0 || snap.Quantile(0.99) == 0 {
			b.Fatal("zero quantile")
		}
	}
}

func BenchmarkLatencyQuantile_Window(b *testing.B) {
	window := append([]time.Duration(nil), benchLatencies[:1024]...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sorted := append([]time.Duration(nil), window...)
		sort.Slice(sorted, func(x, y int) bool { return sorted[x] < sorted[y] })
		if serve.NearestRank(sorted, 0.50) == 0 || serve.NearestRank(sorted, 0.99) == 0 {
			b.Fatal("zero quantile")
		}
	}
}

// Stats merging — the per-/stats-request cost of aggregating a fleet's
// counters on the shard router.

func BenchmarkStatsMerge(b *testing.B) {
	shards := make([]serve.Stats, 8)
	for i := range shards {
		n := uint64(1000 * (i + 1))
		shards[i] = serve.Stats{
			Batches:   n / 4,
			BatchHist: []uint64{10, 20, 30, n/4 - 60},
			Uptime:    time.Minute,
		}
		for _, c := range serve.Classes {
			lat, queue := serve.NewHistogram(), serve.NewHistogram()
			for j := 1; j <= 100; j++ {
				lat.Observe(time.Duration(i+j) * time.Millisecond)
				queue.Observe(time.Duration(j) * time.Microsecond)
			}
			shards[i].Classes = append(shards[i].Classes, serve.ClassStats{Class: c.String(), Counts: serve.Counts{
				Submitted: n, Completed: n - 10, Failed: 5, Expired: 5,
				LatencyHist: lat, QueueHist: queue,
			}})
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := serve.Merge(shards...)
		if m.Submitted == 0 {
			b.Fatal("empty merge")
		}
	}
}

// Router proxy overhead — end-to-end routed classification against
// in-process fake workers, so the measurement is placement + proxy + stats
// bookkeeping, not model inference.

func BenchmarkRouterProxy(b *testing.B) {
	worker := func() *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/classify", func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write([]byte(`{"class":14,"decision":"accept"}`))
		})
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"status":"ok","queue_depth":0}`))
		})
		return httptest.NewServer(mux)
	}
	w1, w2 := worker(), worker()
	defer w1.Close()
	defer w2.Close()
	router, err := shard.New([]string{w1.URL, w2.URL}, shard.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		router.Shutdown(ctx)
	}()
	front := httptest.NewServer(router.Mux())
	defer front.Close()
	body := []byte(`{"sign":"stop","seed":1}`)
	client := &http.Client{Timeout: 10 * time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(front.URL+"/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
}

// Substrate microbenchmarks.

func BenchmarkSoftFloatMul(b *testing.B) {
	x, y := float32(1.7), float32(-2.3)
	var s float32
	for i := 0; i < b.N; i++ {
		s = fault.MulSoft(x, s+y)
	}
	_ = s
}

func BenchmarkSoftFloatAdd(b *testing.B) {
	x := float32(1.7)
	var s float32
	for i := 0; i < b.N; i++ {
		s = fault.AddSoft(s, x)
	}
	_ = s
}

func BenchmarkLeakyBucket(b *testing.B) {
	bucket := reliable.NewDefaultBucket()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			bucket.Fail()
		} else {
			bucket.OK()
		}
	}
}

func benchOps(b *testing.B, mk func() (reliable.Ops, error)) {
	ops, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	engine, err := reliable.NewEngine(ops, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc float32
	for i := 0; i < b.N; i++ {
		v, err := engine.MAC(acc, 1.0001, 0.9999)
		if err != nil {
			b.Fatal(err)
		}
		acc = v * 1e-9
	}
	_ = acc
}

func BenchmarkReliableMAC_Plain(b *testing.B) {
	benchOps(b, func() (reliable.Ops, error) { return reliable.NewPlain(fault.Ideal{}) })
}

func BenchmarkReliableMAC_TemporalDMR(b *testing.B) {
	benchOps(b, func() (reliable.Ops, error) { return reliable.NewTemporalDMR(fault.Ideal{}) })
}

func BenchmarkReliableMAC_TMR(b *testing.B) {
	benchOps(b, func() (reliable.Ops, error) {
		return reliable.NewTMR(fault.Ideal{}, fault.Ideal{}, fault.Ideal{})
	})
}

// Hybrid end-to-end inference.

func benchHybrid(b *testing.B, wiring core.Wiring) {
	rng := rand.New(rand.NewSource(3))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 32, Conv1Filters: 8, Conv1Kernel: 5,
		Conv2Filters: 8, Hidden: 16, Classes: 6, UseLRN: false,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Wiring: wiring, Mode: core.ModeTemporalDMR, Pair: pair,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon},
	}
	imgSize := 32
	if wiring == core.WiringParallel {
		cfg.DownsampleFactor = 3
		imgSize = 96
	}
	h, err := core.NewHybridNetwork(cfg, net)
	if err != nil {
		b.Fatal(err)
	}
	img, err := gtsrb.AngledStopSign(imgSize, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Classify(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridClassify_Parallel(b *testing.B)   { benchHybrid(b, core.WiringParallel) }
func BenchmarkHybridClassify_Bifurcated(b *testing.B) { benchHybrid(b, core.WiringBifurcated) }

// Reliable execution under injected faults (includes retry work).

func BenchmarkReliableConvUnderFaults(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := tensor.MustNew(3, 16, 16)
	in.FillUniform(rng, 0, 1)
	filters := tensor.MustNew(4, 3, 3, 3)
	filters.FillUniform(rng, -0.5, 0.5)
	spec := reliable.ConvSpec{Stride: 1}
	seed := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed++
		alu, err := fault.NewTransient(1e-4, fault.BitFlip{Bit: -1}, rand.New(rand.NewSource(seed)))
		if err != nil {
			b.Fatal(err)
		}
		ops, err := reliable.NewTemporalDMR(alu)
		if err != nil {
			b.Fatal(err)
		}
		engine, err := reliable.NewEngine(ops, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reliable.Conv2D(engine, in, filters, nil, spec); err != nil &&
			!errors.Is(err, reliable.ErrBucketTripped) {
			b.Fatal(err)
		}
	}
}

// Analytic guarantee computation.

func BenchmarkGuarantee(b *testing.B) {
	params := core.GuaranteeParams{
		PerOpFaultProb: 1e-9, CollisionProb: 1.0 / 32,
		Mode: core.ModeTemporalDMR, BucketFactor: 2, BucketCeiling: 3,
		OpsPerInference: 210_830_400,
	}
	for i := 0; i < b.N; i++ {
		if _, err := core.ComputeGuarantee(params); err != nil {
			b.Fatal(err)
		}
	}
}
