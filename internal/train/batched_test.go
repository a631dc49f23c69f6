package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// batchGrads runs one mini-batch through a fresh net/trainer with the given
// SubBatch and worker count and returns the accumulated canonical gradients.
func batchGrads(t *testing.T, subBatch, workers int) []float64 {
	t.Helper()
	ds := tinyDataset(t, 4, 1)
	batch := make([]int, ds.Len())
	for i := range batch {
		batch[i] = i
	}
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.01, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Net: net, Opt: opt, Workers: workers, SubBatch: subBatch,
		Rng: rand.New(rand.NewSource(2))}
	if err := tr.normalize(); err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*nn.Context, workers)
	for i := range ctxs {
		ctx := nn.NewContext()
		ctx.SetTraining(true)
		if workers > 1 {
			ctx.ShadowGrads(true)
		}
		ctxs[i] = ctx
	}
	net.ZeroGrads()
	if _, err := tr.runBatch(ctxs, ds, batch, 0); err != nil {
		t.Fatal(err)
	}
	var out []float64
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data() {
			out = append(out, float64(g))
		}
	}
	return out
}

// TestBatchedGradientsMatchBatchesOfOne: one mini-batch through whole-shard
// and capped sub-batches must accumulate the same canonical gradients as
// SubBatch=1 (batches of one through the same ForwardBatch/BackwardBatch),
// up to floating-point summation order.
func TestBatchedGradientsMatchBatchesOfOne(t *testing.T) {
	want := batchGrads(t, 1, 1)
	for _, subBatch := range []int{0, 2, 3, 8} {
		got := batchGrads(t, subBatch, 1)
		if len(got) != len(want) {
			t.Fatalf("subbatch=%d: %d grads != %d", subBatch, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-4 {
				t.Fatalf("subbatch=%d: grad[%d] = %v, batches of one %v", subBatch, i, got[i], want[i])
			}
		}
	}
}

// TestBatchedGradientsMatchAcrossWorkers: the batched shard path composes
// with data-parallel workers — shadow-gradient reduction is unchanged.
func TestBatchedGradientsMatchAcrossWorkers(t *testing.T) {
	want := batchGrads(t, 0, 1)
	for _, workers := range []int{2, 3, 4} {
		got := batchGrads(t, 0, workers)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-4 {
				t.Fatalf("workers=%d: grad[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// fitLosses trains a fresh net end to end with the given SubBatch and
// returns the per-epoch mean losses.
func fitLosses(t *testing.T, subBatch int) []float64 {
	t.Helper()
	ds := tinyDataset(t, 6, 3)
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.05, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	tr := &Trainer{
		Net: net, Opt: opt, BatchSize: 8, Epochs: 4, SubBatch: subBatch,
		Rng: rand.New(rand.NewSource(12)),
		OnEpoch: func(epoch int, loss float64) error {
			losses = append(losses, loss)
			return nil
		},
	}
	if _, err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return losses
}

// TestFitLossTrajectoryAcrossSubBatch: end-to-end Trainer.Fit must walk the
// same loss trajectory with whole-shard batches and with batches of one. The
// runs share seeds and update rule; only float32 summation order differs,
// and the divergence compounds through the optimiser, so the tolerance is
// loose relative to the per-step 1e-5 gradient equivalence.
func TestFitLossTrajectoryAcrossSubBatch(t *testing.T) {
	batched := fitLosses(t, 0)
	ones := fitLosses(t, 1)
	if len(batched) != len(ones) {
		t.Fatalf("epoch counts differ: %d vs %d", len(batched), len(ones))
	}
	for e := range batched {
		if d := math.Abs(batched[e] - ones[e]); d > 1e-2 {
			t.Fatalf("epoch %d: whole-shard loss %v vs batches of one %v (diff %v)",
				e, batched[e], ones[e], d)
		}
	}
	if last := batched[len(batched)-1]; !(last < batched[0]) {
		t.Errorf("batched training did not reduce loss: first %v last %v", batched[0], last)
	}
}

// TestMixedShapeDatasetRejected: a training set is one shape. A sub-batch
// whose images disagree cannot pack and reports the offending sample; with
// batches of one the odd image reaches the network, whose dense layer
// rejects it. Either way Fit fails instead of training on a subset.
func TestMixedShapeDatasetRejected(t *testing.T) {
	for _, subBatch := range []int{0, 1} {
		ds := tinyDataset(t, 2, 5)
		// One odd-shaped sample: conv accepts it, flatten+dense reject it.
		odd := tensor.MustNew(3, 20, 20)
		odd.FillUniform(rand.New(rand.NewSource(5)), 0, 1)
		ds.Examples[3].Image = odd
		net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := NewSGD(0.01, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Trainer{Net: net, Opt: opt, BatchSize: ds.Len(), Epochs: 1, SubBatch: subBatch,
			Rng: rand.New(rand.NewSource(2))}
		if _, err := tr.Fit(ds); err == nil {
			t.Fatalf("subbatch=%d: mixed-shape training succeeded", subBatch)
		}
	}
}

// TestSubBatchValidation: negative sub-batches are rejected up front.
func TestSubBatchValidation(t *testing.T) {
	ds := tinyDataset(t, 1, 1)
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.01, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Net: net, Opt: opt, SubBatch: -1, Rng: rand.New(rand.NewSource(2))}
	if _, err := tr.Fit(ds); err == nil {
		t.Fatal("negative sub-batch accepted")
	}
}
