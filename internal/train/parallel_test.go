package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// TestParallelBatchGradientsMatchSerial: one mini-batch through the
// data-parallel path must accumulate the same canonical gradients as the
// serial path, up to floating-point summation order.
func TestParallelBatchGradientsMatchSerial(t *testing.T) {
	ds := tinyDataset(t, 4, 1)
	batch := make([]int, ds.Len())
	for i := range batch {
		batch[i] = i
	}

	grads := func(workers int) []float64 {
		net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := NewSGD(0.01, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Trainer{Net: net, Opt: opt, Workers: workers, Rng: rand.New(rand.NewSource(2))}
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

	want := grads(1)
	for _, workers := range []int{2, 3, 4} {
		got := grads(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d grads != %d", workers, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-4 {
				t.Fatalf("workers=%d: grad[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestTrainerParallelFit: end-to-end training with workers > 1 still
// learns (loss decreases to a sane level) and evaluation agrees across
// worker counts.
func TestTrainerParallelFit(t *testing.T) {
	ds := tinyDataset(t, 6, 3)
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.05, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	tr := &Trainer{
		Net: net, Opt: opt, BatchSize: 8, Epochs: 6, Workers: 4,
		Rng: rand.New(rand.NewSource(12)),
		OnEpoch: func(epoch int, loss float64) error {
			if epoch == 0 {
				first = loss
			}
			last = loss
			return nil
		},
	}
	if _, err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if !(last < first) {
		t.Errorf("parallel training did not reduce loss: first %v last %v", first, last)
	}

	cmSerial, err := EvaluateParallel(net, ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	cmPool, err := EvaluateParallel(net, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := cmSerial.MaxAbsDiff(cmPool); err != nil || d != 0 {
		t.Errorf("evaluation differs across worker counts: %v %v", d, err)
	}

	// Validation.
	bad := &Trainer{Net: net, Opt: opt, Workers: -1, Rng: tr.Rng}
	if _, err := bad.Fit(ds); err == nil {
		t.Error("negative workers should fail")
	}
}

// TestLazyGradParallelFit: gradient accumulators do not exist until the
// first backward pass, and with Workers: 4 every worker reaches each layer's
// first BackwardBatch at once — they must all end up shadowing the same
// canonical tensors (run under -race), and two runs of one seed must train
// the same weights.
func TestLazyGradParallelFit(t *testing.T) {
	ds := tinyDataset(t, 4, 5)
	cfg := tinyConfig()
	cfg.UseLRN = true
	fit := func() *nn.Sequential {
		net, err := nn.NewMicroAlexNet(cfg, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range net.Params() {
			if p.Grad != nil {
				t.Fatalf("%s has a gradient accumulator before training", p.Name)
			}
		}
		opt, err := NewSGD(0.05, 0.9, 1e-4)
		if err != nil {
			t.Fatal(err)
		}
		tr := &Trainer{Net: net, Opt: opt, BatchSize: 8, Epochs: 1, Workers: 4, Rng: rand.New(rand.NewSource(22))}
		if _, err := tr.Fit(ds); err != nil {
			t.Fatal(err)
		}
		for _, p := range net.Params() {
			if p.Grad == nil {
				t.Fatalf("%s has no gradient accumulator after training", p.Name)
			}
		}
		return net
	}
	a, b := fit().Params(), fit().Params()
	for i := range a {
		if d, err := a[i].Value.MaxAbsDiff(b[i].Value); err != nil || d != 0 {
			t.Errorf("%s differs between two Workers: 4 runs of one seed: %v %v", a[i].Name, d, err)
		}
	}
}

// TestSGDStepNilGrad: a parameter no backward pass has reached has a zero
// gradient — the step applies decay only, and must not dereference it.
func TestSGDStepNilGrad(t *testing.T) {
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewSGD(0.1, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	params := net.Params()
	before := params[0].Value.Clone()
	if err := opt.Step(params, 1); err != nil {
		t.Fatal(err)
	}
	want := before.Clone()
	want.Scale(1 - 0.1*0.5)
	if !params[0].Value.AllClose(want, 1e-6) {
		t.Error("nil-gradient step should shrink weights by lr·decay and nothing else")
	}
	conv, ok := net.Layers()[0].(*nn.Conv2D)
	if !ok {
		t.Fatal("layer 0 is not the first convolution")
	}
	for _, mode := range []FreezeMode{FreezeHard, FreezeDrift} {
		f, err := NewFilterFreeze(conv, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.BeforeStep(); err != nil {
			t.Errorf("%v freeze before any backward pass: %v", mode, err)
		}
	}
}
