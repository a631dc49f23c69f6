package repro_test

// Benchmarks of what the repo's timing harness does not run. Every serving
// and inference cost is a metric of `bash bench/run.sh` (bench/README.md
// lists them), and Table 1 is `go run ./cmd/experiments -which table1`
// (`-full` for the paper's exact layer). What stays here is training, the
// experiment runners, the serving ledger's histogram and merge, and the
// scalar substrates of the reliable path.
//
// Run everything: go test -run '^$' -bench . -benchmem .

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

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
		m, err := experiments.TrainFigure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunFigure4(m); err != nil {
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

// Batch-native backward — one training step (forward + backward, since the
// backward pass consumes the forward's cached activations) through
// ForwardBatch/BackwardBatch, swept over batch size, N=1 included. dW and
// dX are one GemmTB/GemmTA per layer over the whole batch, so the weight
// matrices stream once per batch in each direction; the effect mirrors the
// forward pass's (tensor.linear_fc6_n{1,8}_gflops in bench/) but roughly
// doubled, because backward touches the weights twice (dW and dX). Training
// is research tooling and stays on `go test -bench` (bench/README.md, "Who
// uses this system").

var backwardSweep = []int{1, 4, 8, 16}

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
// its parameters), mini-batches of 16 (one 16-sample GEMM sweep per layer
// per direction) against mini-batches of 1. Same seeds, same code path;
// only the mini-batch size — and so the number of optimiser steps —
// differs.
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
	for _, batchSize := range []int{16, 1} {
		b.Run(fmt.Sprintf("batch=%d", batchSize), func(b *testing.B) {
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
					Net: net, Opt: opt, BatchSize: batchSize, Epochs: 1,
					Rng: rand.New(rand.NewSource(52)),
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

// Latency quantile estimation — the mergeable log-bucketed serve.Histogram.
// Observe is the per-request cost; Quantile is the per-/stats-snapshot cost
// (a clone plus two bucket walks).

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
