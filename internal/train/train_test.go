package train

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// tinyConfig is a micro-net small enough to train within a unit test.
func tinyConfig() nn.MicroConfig {
	return nn.MicroConfig{
		InputSize: 16, Conv1Filters: 6, Conv1Kernel: 3,
		Conv2Filters: 8, Hidden: 16, Classes: 6, UseLRN: false,
	}
}

func tinyDataset(t *testing.T, perClass int, seed int64) *gtsrb.Dataset {
	t.Helper()
	ds, err := gtsrb.Generate(gtsrb.Config{Size: 16, PerClass: perClass, Clutter: 1}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSGDValidation(t *testing.T) {
	if _, err := NewSGD(0, 0, 0); err == nil {
		t.Error("zero lr should fail")
	}
	if _, err := NewSGD(0.1, 1, 0); err == nil {
		t.Error("momentum 1 should fail")
	}
	if _, err := NewSGD(0.1, 0, 1); err == nil {
		t.Error("decay 1 should fail")
	}
	o, err := NewSGD(0.1, 0.9, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if o.LR() != 0.1 {
		t.Error("LR accessor wrong")
	}
	if err := o.Step(nil, 0); err == nil {
		t.Error("batch size 0 should fail")
	}
}

func TestSGDStepDirection(t *testing.T) {
	// One parameter, gradient +1: value must decrease by lr.
	v := tensor.MustFromSlice([]float32{1}, 1)
	g := tensor.MustFromSlice([]float32{1}, 1)
	p := &nn.Param{Name: "w", Value: v, Grad: g}
	o, _ := NewSGD(0.1, 0, 0)
	if err := o.Step([]*nn.Param{p}, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(v.Data()[0])-0.9) > 1e-6 {
		t.Errorf("after step value = %v, want 0.9", v.Data()[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	v := tensor.MustFromSlice([]float32{0}, 1)
	g := tensor.MustFromSlice([]float32{1}, 1)
	p := &nn.Param{Name: "w", Value: v, Grad: g}
	o, _ := NewSGD(0.1, 0.9, 0)
	// Two steps with the same gradient: second step moves farther.
	if err := o.Step([]*nn.Param{p}, 1); err != nil {
		t.Fatal(err)
	}
	afterOne := float64(v.Data()[0])
	if err := o.Step([]*nn.Param{p}, 1); err != nil {
		t.Fatal(err)
	}
	delta2 := float64(v.Data()[0]) - afterOne
	if math.Abs(afterOne-(-0.1)) > 1e-6 {
		t.Errorf("first step = %v, want -0.1", afterOne)
	}
	if math.Abs(delta2-(-0.19)) > 1e-6 {
		t.Errorf("second step delta = %v, want -0.19 (momentum)", delta2)
	}
}

// TestFitMomentumAccumulates: Trainer.Fit hands the optimiser the layers'
// own Params, the same pointers every step, so velocity carries from step
// to step. From one seed, momentum 0.9 trains different weights than
// momentum 0, and the velocity map holds exactly one tensor per parameter
// after every step instead of growing by one per parameter per step.
func TestFitMomentumAccumulates(t *testing.T) {
	ds := tinyDataset(t, 2, 31)
	fit := func(momentum float32) []*nn.Param {
		net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(32)))
		if err != nil {
			t.Fatal(err)
		}
		first, second := net.Params(), net.Params()
		for i := range first {
			if first[i] != second[i] {
				t.Errorf("%s: Params returned a new *Param on the second call", first[i].Name)
				break
			}
		}
		opt, err := NewSGD(0.05, momentum, 0)
		if err != nil {
			t.Fatal(err)
		}
		// One mini-batch per epoch, so OnEpoch runs after every step.
		tr := &Trainer{
			Net: net, Opt: opt, BatchSize: ds.Len(), Epochs: 4,
			Rng: rand.New(rand.NewSource(33)),
			OnEpoch: func(epoch int, _ float64) error {
				if got, want := len(opt.velocity), len(first); got != want {
					t.Errorf("momentum %v, step %d: %d velocity tensors, want %d (one per parameter)",
						momentum, epoch+1, got, want)
				}
				return nil
			},
		}
		if _, err := tr.Fit(ds); err != nil {
			t.Fatal(err)
		}
		return net.Params()
	}
	plain, heavy := fit(0), fit(0.9)
	var maxDiff float64
	for i := range plain {
		d, err := plain[i].Value.MaxAbsDiff(heavy[i].Value)
		if err != nil {
			t.Fatal(err)
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff == 0 {
		t.Error("momentum 0.9 trained the same weights as momentum 0: velocity never accumulated")
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	v := tensor.MustFromSlice([]float32{1}, 1)
	g := tensor.MustNew(1) // zero gradient
	p := &nn.Param{Name: "w", Value: v, Grad: g}
	o, _ := NewSGD(0.1, 0, 0.5)
	if err := o.Step([]*nn.Param{p}, 1); err != nil {
		t.Fatal(err)
	}
	if v.Data()[0] >= 1 {
		t.Error("weight decay should shrink weights with zero gradient")
	}
}

func TestTrainerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net, err := nn.NewMicroAlexNet(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := NewSGD(0.01, 0.9, 0)
	ds := tinyDataset(t, 1, 2)

	if _, err := (&Trainer{Opt: opt, Rng: rng}).Fit(ds); err == nil {
		t.Error("nil net should fail")
	}
	if _, err := (&Trainer{Net: net, Rng: rng}).Fit(ds); err == nil {
		t.Error("nil opt should fail")
	}
	if _, err := (&Trainer{Net: net, Opt: opt}).Fit(ds); err == nil {
		t.Error("nil rng should fail")
	}
	if _, err := (&Trainer{Net: net, Opt: opt, Rng: rng, BatchSize: -1}).Fit(ds); err == nil {
		t.Error("negative batch should fail")
	}
	if _, err := (&Trainer{Net: net, Opt: opt, Rng: rng, Epochs: -1}).Fit(ds); err == nil {
		t.Error("negative epochs should fail")
	}
	if _, err := (&Trainer{Net: net, Opt: opt, Rng: rng}).Fit(&gtsrb.Dataset{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestTrainingReducesLossAndLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := nn.NewMicroAlexNet(tinyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	ds := tinyDataset(t, 20, 4)
	train, test, err := ds.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Accuracy(net, test)
	if err != nil {
		t.Fatal(err)
	}
	opt, _ := NewSGD(0.03, 0.9, 1e-4)
	var losses []float64
	tr := &Trainer{
		Net: net, Opt: opt, BatchSize: 8, Epochs: 15, Rng: rng,
		OnEpoch: func(_ int, loss float64) error {
			losses = append(losses, loss)
			return nil
		},
	}
	final, err := tr.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 15 {
		t.Fatalf("epoch callback fired %d times", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v", losses)
	}
	if final != losses[len(losses)-1] {
		t.Errorf("Fit return %v != last epoch loss %v", final, losses[len(losses)-1])
	}
	after, err := Accuracy(net, test)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("test accuracy did not improve: %v → %v", before, after)
	}
	// The synthetic shapes are easily separable; expect decent accuracy.
	if after < 0.5 {
		t.Errorf("test accuracy %v below 0.5 after training", after)
	}
}

func TestTrainerEpochCallbackAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, _ := nn.NewMicroAlexNet(tinyConfig(), rng)
	opt, _ := NewSGD(0.01, 0, 0)
	ds := tinyDataset(t, 2, 6)
	calls := 0
	tr := &Trainer{
		Net: net, Opt: opt, Epochs: 5, Rng: rng,
		OnEpoch: func(int, float64) error {
			calls++
			return errAbort
		},
	}
	if _, err := tr.Fit(ds); err == nil {
		t.Error("callback error should abort")
	}
	if calls != 1 {
		t.Errorf("callback fired %d times after abort", calls)
	}
}

var errAbort = &abortErr{}

type abortErr struct{}

func (*abortErr) Error() string { return "abort" }

func TestFreezeModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := tinyDataset(t, 6, 8)

	type result struct {
		drift float64
	}
	results := map[FreezeMode]result{}
	for _, mode := range []FreezeMode{FreezeNone, FreezeHard, FreezeDrift, FreezeResetEpoch} {
		net, err := nn.NewMicroAlexNet(tinyConfig(), rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		conv, err := nn.FirstConv(net)
		if err != nil {
			t.Fatal(err)
		}
		fz, err := NewFilterFreeze(conv, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := NewSGD(0.02, 0.9, 0)
		tr := &Trainer{Net: net, Opt: opt, BatchSize: 8, Epochs: 3,
			Freezes: []*FilterFreeze{fz}, Rng: rng}
		if _, err := tr.Fit(ds); err != nil {
			t.Fatal(err)
		}
		d, err := fz.Drift(0)
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = result{drift: d}
	}
	if results[FreezeHard].drift != 0 {
		t.Errorf("hard freeze drifted by %v, want exactly 0", results[FreezeHard].drift)
	}
	if results[FreezeResetEpoch].drift != 0 {
		t.Errorf("reset-epoch freeze ends epochs at pinned values, drift %v", results[FreezeResetEpoch].drift)
	}
	if results[FreezeDrift].drift == 0 {
		t.Error("drift freeze should move the filter slightly (the TF artefact)")
	}
	if results[FreezeNone].drift <= results[FreezeDrift].drift {
		t.Errorf("free training (%v) should drift more than attenuated training (%v)",
			results[FreezeNone].drift, results[FreezeDrift].drift)
	}
}

func TestFreezeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, _ := nn.NewMicroAlexNet(tinyConfig(), rng)
	conv, _ := nn.FirstConv(net)
	if _, err := NewFilterFreeze(nil, FreezeHard, 0); err == nil {
		t.Error("nil conv should fail")
	}
	if _, err := NewFilterFreeze(conv, FreezeMode(0), 0); err == nil {
		t.Error("unknown mode should fail")
	}
	if _, err := NewFilterFreeze(conv, FreezeHard, 99); err == nil {
		t.Error("out-of-range filter should fail")
	}
	fz, err := NewFilterFreeze(conv, FreezeHard, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fz.indices; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("indices = %v", got)
	}
	if fz.Mode() != FreezeHard {
		t.Error("mode accessor wrong")
	}
	if fz.pinned[0] == nil || fz.pinned[1] != nil {
		t.Error("pinned lookup wrong")
	}
	if _, err := fz.Drift(1); err == nil {
		t.Error("drift of unmanaged filter should fail")
	}
}

func TestFreezeModeString(t *testing.T) {
	for _, m := range []FreezeMode{FreezeNone, FreezeHard, FreezeDrift, FreezeResetEpoch, FreezeMode(42)} {
		if m.String() == "" {
			t.Error("empty freeze mode string")
		}
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm, err := NewConfusionMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	// 2 correct, 1 wrong.
	mustAdd := func(a, b int) {
		t.Helper()
		if err := cm.Add(a, b); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(0, 0)
	mustAdd(1, 1)
	mustAdd(2, 0)
	if cm.Total() != 3 {
		t.Errorf("total = %d", cm.Total())
	}
	if math.Abs(cm.Accuracy()-2.0/3.0) > 1e-12 {
		t.Errorf("accuracy = %v", cm.Accuracy())
	}
	if cm.At(0, 0) != 1 || cm.At(2, 0) != 1 || cm.At(2, 2) != 0 {
		t.Errorf("cells (0,0) (2,0) (2,2) = %d %d %d, want 1 1 0", cm.At(0, 0), cm.At(2, 0), cm.At(2, 2))
	}
	if err := cm.Add(5, 0); err == nil {
		t.Error("out-of-range add should fail")
	}
	if cm.String() == "" {
		t.Error("empty string render")
	}
	if _, err := NewConfusionMatrix(0); err == nil {
		t.Error("0-class matrix should fail")
	}

	other, _ := NewConfusionMatrix(3)
	mustAddO := func(a, b int) {
		t.Helper()
		if err := other.Add(a, b); err != nil {
			t.Fatal(err)
		}
	}
	mustAddO(0, 0)
	mustAddO(1, 1)
	mustAddO(2, 2)
	d, err := cm.MaxAbsDiff(other)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.0/3.0) > 1e-12 {
		t.Errorf("max abs diff = %v, want 1/3", d)
	}
	mismatch, _ := NewConfusionMatrix(2)
	if _, err := cm.MaxAbsDiff(mismatch); err == nil {
		t.Error("size mismatch should fail")
	}
	empty1, _ := NewConfusionMatrix(2)
	empty2, _ := NewConfusionMatrix(2)
	if d, _ := empty1.MaxAbsDiff(empty2); d != 0 {
		t.Error("empty matrices should differ by 0")
	}
	if empty1.Accuracy() != 0 {
		t.Error("empty accuracy should be 0")
	}
}

func TestEvaluateAndConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, _ := nn.NewMicroAlexNet(tinyConfig(), rng)
	ds := tinyDataset(t, 2, 12)
	cm, err := Evaluate(net, ds)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Total() != ds.Len() {
		t.Errorf("evaluated %d of %d", cm.Total(), ds.Len())
	}
	conf, err := MeanClassConfidence(net, ds, gtsrb.StopClass)
	if err != nil {
		t.Fatal(err)
	}
	if conf <= 0 || conf >= 1 {
		t.Errorf("confidence = %v", conf)
	}
	if _, err := MeanClassConfidence(net, ds, 99); err == nil {
		t.Error("class out of range should fail")
	}
	if _, err := Evaluate(nil, ds); err == nil {
		t.Error("nil net should fail")
	}
	if _, err := Evaluate(net, &gtsrb.Dataset{}); err == nil {
		t.Error("empty dataset should fail")
	}
	if _, err := MeanClassConfidence(nil, ds, 0); err == nil {
		t.Error("nil net confidence should fail")
	}
}
