package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// batchGrads runs the samples of a small dataset through a fresh net and
// trainer, one runBatch per group of batches, on one training context, and
// returns the gradients summed into the canonical Param.Grad tensors.
func batchGrads(t *testing.T, batches [][]int) []float64 {
	t.Helper()
	ds := tinyDataset(t, 4, 1)
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.01, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Net: net, Opt: opt, Rng: rand.New(rand.NewSource(2))}
	if err := tr.normalize(); err != nil {
		t.Fatal(err)
	}
	ctx := nn.NewContext()
	ctx.SetTraining(true)
	net.ZeroGrads()
	for _, batch := range batches {
		if _, err := tr.runBatch(ctx, ds, batch, 0); err != nil {
			t.Fatal(err)
		}
	}
	var out []float64
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data() {
			out = append(out, float64(g))
		}
	}
	return out
}

// TestBatchedGradientsMatchBatchesOfOne: one runBatch over the whole
// mini-batch must accumulate the same canonical gradients as one runBatch
// per sample (batches of one through the same ForwardBatch/BackwardBatch),
// summed, up to floating-point summation order.
func TestBatchedGradientsMatchBatchesOfOne(t *testing.T) {
	n := tinyDataset(t, 4, 1).Len()
	whole := make([]int, n)
	ones := make([][]int, n)
	for i := range whole {
		whole[i] = i
		ones[i] = []int{i}
	}
	want := batchGrads(t, ones)
	got := batchGrads(t, [][]int{whole})
	if len(got) != len(want) {
		t.Fatalf("%d grads != %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-4 {
			t.Fatalf("grad[%d] = %v, batches of one %v", i, got[i], want[i])
		}
	}
}

// TestMixedShapeDatasetRejected: a training set is one shape. A mini-batch
// whose images disagree cannot pack, and Fit fails instead of training on a
// subset.
func TestMixedShapeDatasetRejected(t *testing.T) {
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
	tr := &Trainer{Net: net, Opt: opt, BatchSize: ds.Len(), Epochs: 1,
		Rng: rand.New(rand.NewSource(2))}
	if _, err := tr.Fit(ds); err == nil {
		t.Fatal("mixed-shape training succeeded")
	}
}
