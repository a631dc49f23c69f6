package train

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestTrainerParallelFit: end-to-end training learns (loss decreases) and
// pooled evaluation of the trained net agrees across worker counts.
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
		Net: net, Opt: opt, BatchSize: 8, Epochs: 6,
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
		t.Errorf("training did not reduce loss: first %v last %v", first, last)
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

// TestEvaluateParallelInvariantOverWorkers: pooled evaluation gives the
// batch-of-one oracle's confusion matrix — each example alone through
// Sequential.Forward and SoftmaxArgmax — cell for cell at 1, 2 and 3
// workers (shares ragged against the dataset), and MeanClassConfidence
// sums the oracle's probabilities in example order, bit for bit.
func TestEvaluateParallelInvariantOverWorkers(t *testing.T) {
	net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	ds := tinyDataset(t, 5, 14)
	want, err := NewConfusionMatrix(ds.NumClasses())
	if err != nil {
		t.Fatal(err)
	}
	ctx := nn.NewContext()
	var stopSum float64
	var stops int
	for _, ex := range ds.Examples {
		logits, err := net.Forward(ctx, ex.Image)
		if err != nil {
			t.Fatal(err)
		}
		probs, class, err := nn.SoftmaxArgmax(logits)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Add(ex.Label, class); err != nil {
			t.Fatal(err)
		}
		if ex.Label == gtsrb.StopClass {
			stopSum += float64(probs[gtsrb.StopClass])
			stops++
		}
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := EvaluateParallel(net, ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for tr := 0; tr < ds.NumClasses(); tr++ {
			for p := 0; p < ds.NumClasses(); p++ {
				if got.At(tr, p) != want.At(tr, p) {
					t.Fatalf("workers=%d: cell (%d,%d) = %d, batch-of-one oracle %d", workers, tr, p, got.At(tr, p), want.At(tr, p))
				}
			}
		}
	}
	conf, err := MeanClassConfidence(net, ds, gtsrb.StopClass)
	if err != nil {
		t.Fatal(err)
	}
	if wantConf := stopSum / float64(stops); conf != wantConf {
		t.Errorf("MeanClassConfidence = %v, batch-of-one oracle %v", conf, wantConf)
	}
	if _, err := EvaluateParallel(net, ds, -1); err == nil {
		t.Error("negative workers should fail")
	}
}

// randImages returns n random 3×size×size images.
func randImages(n, size int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.MustNew(3, size, size)
		xs[i].FillUniform(rng, 0, 1)
	}
	return xs
}

// requirePredictionsMatchBatchOfOne fails unless predict's probabilities
// and classes for xs are, bit for bit and in input order, what each input
// gets alone through Sequential.Forward and SoftmaxArgmax.
func requirePredictionsMatchBatchOfOne(t *testing.T, what string, net *nn.Sequential, xs []*tensor.Tensor, probs [][]float32, classes []int) {
	t.Helper()
	if len(probs) != len(xs) || len(classes) != len(xs) {
		t.Fatalf("%s: %d probs, %d classes for %d inputs", what, len(probs), len(classes), len(xs))
	}
	ctx := nn.NewContext()
	for i, x := range xs {
		logits, err := net.Forward(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		want, class, err := nn.SoftmaxArgmax(logits)
		if err != nil {
			t.Fatal(err)
		}
		if classes[i] != class {
			t.Fatalf("%s: class[%d] = %d, want %d", what, i, classes[i], class)
		}
		if len(probs[i]) != len(want) {
			t.Fatalf("%s: probs[%d] has %d values, want %d", what, i, len(probs[i]), len(want))
		}
		for j, v := range want {
			if math.Float32bits(probs[i][j]) != math.Float32bits(v) {
				t.Fatalf("%s: probs[%d][%d] = %v, want %v (must be bit-identical)", what, i, j, probs[i][j], v)
			}
		}
	}
}

// TestPredictMatchesBatchOfOne: the pooled pass (one contiguous share per
// worker, packed NCHW, one GEMM per layer) gives each input bit for bit the
// probabilities and class it gets alone as a batch of one, in input order,
// for every worker count including N=1 and batches ragged against the pool.
// Run with -race this is the concurrent shared-weight inference gate.
func TestPredictMatchesBatchOfOne(t *testing.T) {
	cfg := tinyConfig()
	cfg.UseLRN = true
	net, err := nn.NewMicroAlexNet(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 7, 17} {
		xs := randImages(n, cfg.InputSize, int64(n))
		for _, workers := range []int{0, 1, 2, 4, 8} {
			probs, classes, err := predict(net, xs, workers)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("n=%d workers=%d", n, workers)
			requirePredictionsMatchBatchOfOne(t, what, net, xs, probs, classes)
			for i, p := range probs {
				var sum float64
				for _, v := range p {
					sum += float64(v)
				}
				if sum < 0.999 || sum > 1.001 {
					t.Fatalf("%s: probs[%d] sum %v", what, i, sum)
				}
			}
		}
	}
	if probs, classes, err := predict(net, nil, 2); err != nil || len(probs) != 0 || len(classes) != 0 {
		t.Fatalf("empty input: %d probs, %d classes, err %v", len(probs), len(classes), err)
	}
	if _, _, err := predict(net, randImages(2, cfg.InputSize, 1), -1); err == nil {
		t.Error("negative workers should fail")
	}
}

// TestPredictRefusesMixedShapes: a worker packs its share into one NCHW
// batch, so inputs of different shapes are an error for every worker count
// that puts two of them in one share.
func TestPredictRefusesMixedShapes(t *testing.T) {
	// A conv-only net would take each input size alone.
	conv, err := nn.NewConv2D("c", 3, 2, 3, 1, 0, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewSequential("convnet", conv, nn.NewFlatten("f"))
	if err != nil {
		t.Fatal(err)
	}
	big, small := randImages(2, 16, 9), randImages(2, 12, 10)
	xs := []*tensor.Tensor{big[0], small[0], big[1], small[1]}
	for _, workers := range []int{1, 2} {
		if _, _, err := predict(net, xs, workers); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
			t.Fatalf("workers=%d: mixed-shape predict gave %v, want a shape mismatch", workers, err)
		}
	}
}
