package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/shape"
	"repro/internal/tensor"
	"repro/internal/train"
)

func TestModeAccessors(t *testing.T) {
	cases := []struct {
		mode RedundancyMode
		pes  int
	}{
		{ModePlain, 1},
		{ModeTemporalDMR, 1},
		{ModeSpatialDMR, 2},
		{ModeTMR, 3},
	}
	for _, c := range cases {
		pes, err := c.mode.PEs()
		if err != nil || pes != c.pes {
			t.Errorf("%v PEs = %d, %v; want %d", c.mode, pes, err, c.pes)
		}
		if c.mode.String() == "" {
			t.Error("empty mode string")
		}
		ops, err := c.mode.NewOps(nil)
		if err != nil || ops == nil {
			t.Errorf("%v NewOps: %v", c.mode, err)
		}
		v, ok := ops.Mul(3, 4)
		if v != 12 || !ok {
			t.Errorf("%v ideal Mul = %v,%v", c.mode, v, ok)
		}
	}
	bad := RedundancyMode(0)
	if _, err := bad.PEs(); err == nil {
		t.Error("unknown mode PEs should fail")
	}
	if _, err := bad.NewOps(nil); err == nil {
		t.Error("unknown mode NewOps should fail")
	}
	if bad.String() == "" || Decision(9).String() == "" {
		t.Error("fallback strings empty")
	}
}

func TestPaperSobelFilter(t *testing.T) {
	f, err := PaperSobelFilter(11)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dim(0) != 3 || f.Dim(1) != 11 || f.Dim(2) != 11 {
		t.Fatalf("shape %v", f.Shape())
	}
	// Channel 0 and 2 are Sobel-x (identical); channel 1 is Sobel-y.
	c0, _ := f.Channel(0)
	c1, _ := f.Channel(1)
	c2, _ := f.Channel(2)
	if !c0.Equal(c2) {
		t.Error("channels 0 and 2 should both be Sobel-x")
	}
	if c0.Equal(c1) {
		t.Error("channel 1 should be Sobel-y, not Sobel-x")
	}
	if _, err := PaperSobelFilter(4); err == nil {
		t.Error("even kernel should fail")
	}
}

func TestMakeSobelFilterValidation(t *testing.T) {
	if _, err := MakeSobelFilter(); err == nil {
		t.Error("no kernels should fail")
	}
	a := tensor.MustNew(3, 3)
	b := tensor.MustNew(5, 5)
	if _, err := MakeSobelFilter(a, b); err == nil {
		t.Error("mismatched kernel sizes should fail")
	}
	if _, err := MakeSobelFilter(tensor.MustNew(3)); err == nil {
		t.Error("rank-1 kernel should fail")
	}
}

func TestUniformSobel(t *testing.T) {
	fx, err := UniformSobelX(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Each channel is Sobel-x / 3.
	c0, _ := fx.Channel(0)
	c1, _ := fx.Channel(1)
	if !c0.Equal(c1) {
		t.Error("uniform channels should be identical")
	}
	sx3, _ := shape.SobelX(3)
	scaled := sx3.Clone()
	scaled.Scale(1.0 / 3)
	if !c0.AllClose(scaled, 1e-6) {
		t.Error("channel should be Sobel-x / channels")
	}
	if _, err := UniformSobelX(3, 0); err == nil {
		t.Error("zero channels should fail")
	}
	fy, err := UniformSobelY(3, 2)
	if err != nil || fy.Dim(0) != 2 {
		t.Errorf("UniformSobelY: %v %v", fy, err)
	}
}

func TestReplaceRestoreFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv, err := nn.NewConv2D("c", 3, 4, 5, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	conv.Bias().Data()[1] = 7
	orig, _ := conv.Weight().Filter(1)
	origCopy := orig.Clone()

	f, err := PaperSobelFilter(5)
	if err != nil {
		t.Fatal(err)
	}
	prev, prevBias, err := ReplaceFilter(conv, 1, f)
	if err != nil {
		t.Fatal(err)
	}
	if !prev.Equal(origCopy) || prevBias != 7 {
		t.Error("ReplaceFilter should return the previous state")
	}
	now, _ := conv.Weight().Filter(1)
	if !now.Equal(f) {
		t.Error("filter not replaced")
	}
	if conv.Bias().Data()[1] != 0 {
		t.Error("bias should be zeroed")
	}
	if err := RestoreFilter(conv, 1, prev, prevBias); err != nil {
		t.Fatal(err)
	}
	restored, _ := conv.Weight().Filter(1)
	if !restored.Equal(origCopy) || conv.Bias().Data()[1] != 7 {
		t.Error("RestoreFilter did not restore")
	}

	if _, _, err := ReplaceFilter(nil, 0, f); err == nil {
		t.Error("nil conv should fail")
	}
	if _, _, err := ReplaceFilter(conv, 9, f); err == nil {
		t.Error("out-of-range filter should fail")
	}
	wrong := tensor.MustNew(3, 3, 3)
	if _, _, err := ReplaceFilter(conv, 0, wrong); err == nil {
		t.Error("shape mismatch should fail")
	}
	if err := RestoreFilter(nil, 0, prev, 0); err == nil {
		t.Error("nil conv restore should fail")
	}
	if err := RestoreFilter(conv, 9, prev, 0); err == nil {
		t.Error("out-of-range restore should fail")
	}
}

func TestInstallSobelPair(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv, _ := nn.NewConv2D("c", 3, 4, 5, 1, 0, rng)
	pair, err := InstallSobelPair(conv, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pair.XIdx != 0 || pair.YIdx != 1 {
		t.Errorf("pair = %+v", pair)
	}
	fx, _ := conv.Weight().Filter(0)
	want, _ := UniformSobelX(5, 3)
	if !fx.Equal(want) {
		t.Error("filter 0 should be uniform Sobel-x")
	}
	if _, err := InstallSobelPair(conv, 2, 2); err == nil {
		t.Error("identical indices should fail")
	}
	if _, err := InstallSobelPair(nil, 0, 1); err == nil {
		t.Error("nil conv should fail")
	}
}

func TestEdgeMagnitudeFromChannels(t *testing.T) {
	f := tensor.MustNew(2, 2, 2)
	f.Set3(3, 0, 0, 0)
	f.Set3(4, 1, 0, 0)
	mag, err := EdgeMagnitudeFromChannels(f, SobelPair{XIdx: 0, YIdx: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mag.At(0, 0) != 5 {
		t.Errorf("magnitude = %v, want 5", mag.At(0, 0))
	}
	if _, err := EdgeMagnitudeFromChannels(tensor.MustNew(4), SobelPair{}); err == nil {
		t.Error("rank-1 features should fail")
	}
	if _, err := EdgeMagnitudeFromChannels(f, SobelPair{XIdx: 0, YIdx: 5}); err == nil {
		t.Error("out-of-range channel should fail")
	}
}

var (
	trainedNetOnce sync.Once
	trainedNet     *nn.Sequential
	trainedNetErr  error
)

// trainedPair is where trainedMicroNet's conv1 carries the Sobel pair.
var trainedPair = SobelPair{XIdx: 0, YIdx: 1}

// trainedMicroNet trains a small classifier once, with the Sobel pair
// pinned in its conv1 as hybridnet train pins it, and shares it across the
// hybrid tests (they only read it).
func trainedMicroNet(t *testing.T) *nn.Sequential {
	t.Helper()
	trainedNetOnce.Do(func() { trainedNet, trainedNetErr = buildTrainedMicroNet() })
	if trainedNetErr != nil {
		t.Fatal(trainedNetErr)
	}
	return trainedNet
}

func buildTrainedMicroNet() (*nn.Sequential, error) {
	rng := rand.New(rand.NewSource(33))
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 32, Conv1Filters: 8, Conv1Kernel: 5,
		Conv2Filters: 12, Hidden: 32, Classes: 6, UseLRN: false,
	}, rng)
	if err != nil {
		return nil, err
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	if _, err := InstallSobelPair(conv1, trainedPair.XIdx, trainedPair.YIdx); err != nil {
		return nil, err
	}
	freeze, err := train.NewFilterFreeze(conv1, train.FreezeHard, trainedPair.XIdx, trainedPair.YIdx)
	if err != nil {
		return nil, err
	}
	ds, err := gtsrb.Generate(gtsrb.Config{Size: 32, PerClass: 15, Clutter: 1}, rand.New(rand.NewSource(34)))
	if err != nil {
		return nil, err
	}
	opt, err := train.NewSGD(0.03, 0.9, 1e-4)
	if err != nil {
		return nil, err
	}
	tr := &train.Trainer{
		Net: net, Opt: opt, BatchSize: 8, Epochs: 8, Rng: rng,
		Freezes: []*train.FilterFreeze{freeze},
	}
	if _, err := tr.Fit(ds); err != nil {
		return nil, err
	}
	return net, nil
}

func defaultSafety() map[int]shape.Class {
	return map[int]shape.Class{gtsrb.StopClass: shape.ClassOctagon}
}

func TestHybridConfigValidation(t *testing.T) {
	net := trainedMicroNet(t)
	good := Config{
		Mode: ModeTemporalDMR, Pair: trainedPair,
		SafetyClasses: defaultSafety(),
	}
	if _, err := NewHybridNetwork(good, net); err != nil {
		t.Fatalf("good config: %v", err)
	}
	if _, err := NewHybridNetwork(good, nil); err == nil {
		t.Error("nil net should fail")
	}
	bad := good
	bad.Mode = RedundancyMode(0)
	if _, err := NewHybridNetwork(bad, net); err == nil {
		t.Error("unknown mode should fail")
	}
	bad = good
	bad.SafetyClasses = nil
	if _, err := NewHybridNetwork(bad, net); err == nil {
		t.Error("no safety classes should fail")
	}
	bad = good
	bad.Pair = SobelPair{XIdx: 0, YIdx: 0}
	if _, err := NewHybridNetwork(bad, net); err == nil {
		t.Error("degenerate sobel pair should fail")
	}
	bad.Pair = SobelPair{XIdx: 0, YIdx: 99}
	if _, err := NewHybridNetwork(bad, net); err == nil {
		t.Error("out-of-range sobel pair should fail")
	}
	bad = good
	bad.DCNNDepth = 2
	if _, err := NewHybridNetwork(bad, net); err == nil {
		t.Error("DCNN depth 2 should fail: conv1 is the whole reliable stage")
	}
	// The CNN takes over at layer 1, so layer 0 must be the reliable conv1;
	// a convolution found further in must not be taken for it.
	conv, err := nn.NewConv2D("conv", 3, 3, 3, 1, 1, rand.New(rand.NewSource(64)))
	if err != nil {
		t.Fatal(err)
	}
	reluFirst, err := nn.NewSequential("relu-first", nn.NewReLU("relu"), conv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHybridNetwork(good, reluFirst); err == nil {
		t.Error("a net whose layer 0 is not a convolution should fail")
	}
}

// sobelNet64 builds an untrained 64×64 micro network with the Sobel pair
// installed in its conv1: its CNN classification is meaningless, but the
// qualifier sees conv1's Sobel channels at a resolution where an octagon's
// corners survive.
func sobelNet64(t *testing.T) (*nn.Sequential, SobelPair) {
	t.Helper()
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 64, Conv1Filters: 8, Conv1Kernel: 5,
		Conv2Filters: 8, Hidden: 16, Classes: 6, UseLRN: false,
	}, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net, pair
}

func TestHybridParallelStopSignQualified(t *testing.T) {
	net, pair := sobelNet64(t)
	h, err := NewHybridNetwork(Config{
		Mode: ModeTemporalDMR, Pair: pair,
		SafetyClasses: defaultSafety(),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	if h.Net() != net || h.Qualifier() == nil {
		t.Error("accessors broken")
	}

	// A clean, well-centred stop sign at 64×64.
	rng := rand.New(rand.NewSource(35))
	spec := gtsrb.StandardClasses()[gtsrb.StopClass]
	img, err := gtsrb.Render(gtsrb.SignParams{
		Shape: spec.Shape, Fill: spec.Fill, Size: 64,
		CenterX: 32, CenterY: 32, Radius: 24, Rotation: 0.1,
		Background: 0.1, NoiseSigma: 0.01, Brightness: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifier.Class != shape.ClassOctagon {
		t.Errorf("qualifier = %v (peaks=%d round=%.3f), want octagon",
			res.Qualifier.Class, res.Qualifier.Peaks, res.Qualifier.Round)
	}
	if res.Class == gtsrb.StopClass {
		if res.Decision != DecisionQualified {
			t.Errorf("decision = %v, want qualified", res.Decision)
		}
	} else {
		t.Logf("CNN misclassified stop as %d; decision = %v", res.Class, res.Decision)
		if res.Decision == DecisionQualified {
			t.Error("non-stop classification must not be stop-qualified")
		}
	}
	if res.Stats.Ops == 0 {
		t.Error("reliable stage executed no operations")
	}
	if res.Bucket.Tripped {
		t.Error("bucket tripped on fault-free hardware")
	}
}

func TestHybridParallelNonSafetyClassSkipsQualification(t *testing.T) {
	net := trainedMicroNet(t)
	h, err := NewHybridNetwork(Config{
		Mode: ModePlain, Pair: trainedPair,
		SafetyClasses: defaultSafety(),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	// A parking sign (blue square): whatever the CNN says, as long as it is
	// not the stop class the decision must be not-safety-relevant.
	rng := rand.New(rand.NewSource(36))
	spec := gtsrb.StandardClasses()[3] // parking
	img, err := gtsrb.Render(gtsrb.SignParams{
		Shape: spec.Shape, Fill: spec.Fill, Size: 32,
		CenterX: 16, CenterY: 16, Radius: 11,
		Background: 0.1, NoiseSigma: 0.01, Brightness: 1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != gtsrb.StopClass && res.Decision != DecisionNotSafetyRelevant {
		t.Errorf("decision = %v, want not-safety-relevant for class %d", res.Decision, res.Class)
	}
	if res.Class == gtsrb.StopClass && res.Decision != DecisionRejected {
		t.Errorf("square misclassified as stop must be rejected, got %v", res.Decision)
	}
}

func TestHybridRejectsMismatchedShape(t *testing.T) {
	net := trainedMicroNet(t)
	// Demand a triangle for the stop class: a real octagonal stop sign must
	// now be rejected whenever the CNN claims "stop".
	h, err := NewHybridNetwork(Config{
		Mode: ModePlain, Pair: trainedPair,
		SafetyClasses: map[int]shape.Class{gtsrb.StopClass: shape.ClassTriangle},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	img, err := gtsrb.AngledStopSign(32, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class == gtsrb.StopClass && res.Decision != DecisionRejected {
		t.Errorf("decision = %v, want rejected (qualifier saw %v)", res.Decision, res.Qualifier.Class)
	}
}

// saturatingALUs yields a fresh transient ALU per processing element that
// corrupts every result with an independent random word, so under temporal
// DMR the very first operation disagrees with itself and the second failed
// attempt trips the default bucket.
func saturatingALUs() ALUFactory {
	seed := int64(0)
	return func() fault.ALU {
		seed++
		alu, err := fault.NewTransient(1, fault.WordRandom{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			panic(err)
		}
		return alu
	}
}

// TestBucketTripAtEveryReliableSite drives a persistent fault into the one
// place the hybrid executes reliably — conv1 — through Classify and through
// a warm one-worker BatchClassifier whose chunk also carries CNN-only
// riders. Every full image must come back DecisionExecutionFailed with the
// bucket trip in ExecErr and Bucket and per-image work counters; the CNN
// lost its input and reports nothing. The riders never touch the reliable stage, so they equal a
// fault-free run bit for bit.
func TestBucketTripAtEveryReliableSite(t *testing.T) {
	net := trainedMicroNet(t)
	t.Run("bifurcated conv1", func(t *testing.T) {
		cfg := Config{
			Mode: ModeTemporalDMR, Pair: trainedPair,
			SafetyClasses: defaultSafety(),
		}
		clean, err := NewHybridNetwork(cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ALUs = saturatingALUs()
		faulty, err := NewHybridNetwork(cfg, net)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(57))
		gcfg, err := gtsrb.Config{Size: 32}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		imgs := make([]*tensor.Tensor, 5)
		for i := range imgs {
			spec := gtsrb.StandardClasses()[i%len(gtsrb.StandardClasses())]
			if imgs[i], err = gtsrb.Render(gtsrb.RandomParams(gcfg, spec, rng), rng); err != nil {
				t.Fatal(err)
			}
		}
		pipes := []Pipeline{PipelineFull, PipelineCNN, PipelineFull, PipelineCNN, PipelineFull}

		// Fault-free reference for the riders.
		cleanPool, err := clean.NewBatchClassifier(1)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := cleanPool.ClassifyBatchPipelined(imgs, pipes)
		if err != nil {
			t.Fatal(err)
		}
		// The work counters of an image that trips: under the default
		// bucket two successive failures of its first operation trip, one
		// retry.
		wantStats := reliable.Stats{Ops: 2, Failed: 2, Retries: 1}

		checkFailed := func(t *testing.T, label string, res Result) {
			t.Helper()
			if res.Decision != DecisionExecutionFailed {
				t.Errorf("%s: decision = %v, want execution-failed", label, res.Decision)
			}
			if !errors.Is(res.ExecErr, reliable.ErrBucketTripped) {
				t.Errorf("%s: ExecErr = %v, want a bucket trip", label, res.ExecErr)
			}
			if !res.Bucket.Tripped || res.Bucket.Errors != 2 {
				t.Errorf("%s: bucket = %+v, want tripped after 2 errors", label, res.Bucket)
			}
			if res.Stats != wantStats {
				t.Errorf("%s: stats = %+v, want per-image %+v", label, res.Stats, wantStats)
			}
			if res.Qualifier.Class != 0 {
				t.Errorf("%s: qualifier ran (%v) after a failed execution", label, res.Qualifier.Class)
			}
			if res.Class != 0 || res.Confidence != 0 || res.Probs != nil {
				t.Errorf("%s: CNN ran without its input: (%d,%v,%v)", label, res.Class, res.Confidence, res.Probs)
			}
		}

		serial := make([]Result, len(imgs))
		for i, img := range imgs {
			if pipes[i] != PipelineFull {
				continue
			}
			if serial[i], err = faulty.Classify(img); err != nil {
				t.Fatal(err)
			}
			checkFailed(t, fmt.Sprintf("Classify img %d", i), serial[i])
		}

		pool, err := faulty.NewBatchClassifier(1)
		if err != nil {
			t.Fatal(err)
		}
		// Two rounds: the second runs on an engine that has already
		// served (and tripped on) other images.
		for round := 0; round < 2; round++ {
			got, _, err := pool.ClassifyBatchPipelined(imgs, pipes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				label := fmt.Sprintf("round %d img %d", round, i)
				if pipes[i] == PipelineFull {
					checkFailed(t, label, got[i])
					// The attempt counts in the message are the image's
					// own, whatever the pooled engine served before it.
					if got[i].ExecErr != nil && got[i].ExecErr.Error() != serial[i].ExecErr.Error() {
						t.Errorf("%s: ExecErr %q != Classify's %q", label, got[i].ExecErr, serial[i].ExecErr)
					}
					continue
				}
				if got[i].Class != want[i].Class || got[i].Confidence != want[i].Confidence ||
					!equalProbs(got[i].Probs, want[i].Probs) || got[i].Decision != want[i].Decision ||
					got[i].Stats != (reliable.Stats{}) || got[i].Bucket != (reliable.Snapshot{}) ||
					got[i].ExecErr != nil {
					t.Errorf("%s: fast rider %+v != fault-free %+v", label, got[i], want[i])
				}
			}
		}
	})
}

// equalProbs reports whether two probability rows are bit-identical.
func equalProbs(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHybridSingleTransientFaultIsCorrected(t *testing.T) {
	net := trainedMicroNet(t)
	mk := func(f ALUFactory) *HybridNetwork {
		h, err := NewHybridNetwork(Config{
			Mode: ModeTemporalDMR, Pair: trainedPair,
			SafetyClasses: defaultSafety(), ALUs: f,
		}, net)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	rng := rand.New(rand.NewSource(39))
	img, err := gtsrb.AngledStopSign(32, rng)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := mk(nil).Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	faultRng := rand.New(rand.NewSource(40))
	faulty := mk(func() fault.ALU {
		alu, err := fault.NewOnceAfter(1000, fault.BitFlip{Bit: 28}, faultRng)
		if err != nil {
			panic(err)
		}
		return alu
	})
	res, err := faulty.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != clean.Decision || res.Qualifier.Class != clean.Qualifier.Class {
		t.Errorf("single corrected fault changed the verdict: %v/%v vs %v/%v",
			res.Decision, res.Qualifier.Class, clean.Decision, clean.Qualifier.Class)
	}
	if res.Stats.Retries != 1 {
		t.Errorf("retries = %d, want exactly 1", res.Stats.Retries)
	}
}

func TestHybridBifurcated(t *testing.T) {
	// The bifurcated data path must deliver the conv1 Sobel channels to the
	// qualifier, which must still recognise an angled octagon.
	net, pair := sobelNet64(t)
	h, err := NewHybridNetwork(Config{
		Mode:          ModeTemporalDMR,
		SafetyClasses: defaultSafety(), Pair: pair,
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	img, err := gtsrb.AngledStopSign(64, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Qualifier.Class != shape.ClassOctagon {
		t.Errorf("bifurcated qualifier = %v (peaks=%d round=%.3f dist=%.2f), want octagon",
			res.Qualifier.Class, res.Qualifier.Peaks, res.Qualifier.Round, res.Qualifier.WordDist)
	}
	if res.Stats.Ops == 0 {
		t.Error("no reliable operations executed")
	}
	// Consistency of the decision logic.
	if res.Class == gtsrb.StopClass && res.Decision != DecisionQualified {
		t.Errorf("stop + octagon should be qualified, got %v", res.Decision)
	}
	if res.Class != gtsrb.StopClass && res.Decision != DecisionNotSafetyRelevant {
		t.Errorf("non-stop class should be not-safety-relevant, got %v", res.Decision)
	}
}

func TestGuaranteeValidation(t *testing.T) {
	good := GuaranteeParams{
		PerOpFaultProb: 1e-6, CollisionProb: 1.0 / 32,
		Mode: ModeTemporalDMR, BucketFactor: 2, BucketCeiling: 3,
		OpsPerInference: 1000,
	}
	if _, err := ComputeGuarantee(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.PerOpFaultProb = -1
	if _, err := ComputeGuarantee(bad); err == nil {
		t.Error("negative p should fail")
	}
	bad = good
	bad.CollisionProb = 2
	if _, err := ComputeGuarantee(bad); err == nil {
		t.Error("q > 1 should fail")
	}
	bad = good
	bad.Mode = RedundancyMode(0)
	if _, err := ComputeGuarantee(bad); err == nil {
		t.Error("unknown mode should fail")
	}
	bad = good
	bad.BucketFactor = 0
	if _, err := ComputeGuarantee(bad); err == nil {
		t.Error("bucket factor 0 should fail")
	}
	bad = good
	bad.OpsPerInference = 0
	if _, err := ComputeGuarantee(bad); err == nil {
		t.Error("zero ops should fail")
	}
}

func TestGuaranteePlainVsDMR(t *testing.T) {
	// p = 1e-9 keeps the plain-mode per-inference probability away from
	// saturation so the DMR-vs-plain ratio is meaningful.
	base := GuaranteeParams{
		PerOpFaultProb: 1e-9, CollisionProb: 1.0 / 32,
		BucketFactor: 2, BucketCeiling: 3, OpsPerInference: 210_000_000,
	}
	plain := base
	plain.Mode = ModePlain
	gp, err := ComputeGuarantee(plain)
	if err != nil {
		t.Fatal(err)
	}
	if gp.PSDCAttempt != base.PerOpFaultProb {
		t.Errorf("plain SDC per attempt = %v, want p", gp.PSDCAttempt)
	}
	if gp.PDetectedAttempt != 0 {
		t.Error("plain mode detects nothing")
	}

	dmr := base
	dmr.Mode = ModeTemporalDMR
	gd, err := ComputeGuarantee(dmr)
	if err != nil {
		t.Fatal(err)
	}
	// DMR per-attempt SDC = p²q.
	want := 1e-9 * 1e-9 / 32
	if math.Abs(gd.PSDCAttempt-want)/want > 1e-9 {
		t.Errorf("DMR SDC per attempt = %v, want %v", gd.PSDCAttempt, want)
	}
	// The guarantee: DMR cuts the silent-corruption probability by orders
	// of magnitude relative to plain execution.
	if gd.PUndetectedPerInference >= gp.PUndetectedPerInference/1000 {
		t.Errorf("DMR per-inference SDC %v not ≪ plain %v",
			gd.PUndetectedPerInference, gp.PUndetectedPerInference)
	}
	// Bucket 2/3 allows ceil(3/2)=2 consecutive failures.
	if gd.MaxConsecutiveFailures != 2 {
		t.Errorf("max consecutive failures = %d, want 2", gd.MaxConsecutiveFailures)
	}
	if gd.String() == "" {
		t.Error("empty guarantee string")
	}
}

func TestGuaranteeTMRMasksSingleFaults(t *testing.T) {
	params := GuaranteeParams{
		PerOpFaultProb: 1e-3, CollisionProb: 1.0 / 32,
		Mode: ModeTMR, BucketFactor: 2, BucketCeiling: 3, OpsPerInference: 1000,
	}
	g, err := ComputeGuarantee(params)
	if err != nil {
		t.Fatal(err)
	}
	// TMR's correct probability includes the single-fault mask term:
	// (1−p)³ + 3p(1−p)² ≈ 1 − 3p² for small p.
	if g.PCorrectAttempt < 1-4e-6 {
		t.Errorf("TMR correct per attempt = %v, want ≈ 1−3p²", g.PCorrectAttempt)
	}
	// TMR detects less than DMR (it masks instead).
	dmrParams := params
	dmrParams.Mode = ModeTemporalDMR
	gd, _ := ComputeGuarantee(dmrParams)
	if g.PDetectedAttempt >= gd.PDetectedAttempt {
		t.Errorf("TMR detected %v should be below DMR %v (masking)", g.PDetectedAttempt, gd.PDetectedAttempt)
	}
}

// Property: per-attempt outcome probabilities always sum to 1.
func TestQuickGuaranteeProbabilitiesSum(t *testing.T) {
	f := func(pRaw, qRaw uint16, modeRaw uint8) bool {
		p := float64(pRaw) / 65535
		q := float64(qRaw) / 65535
		mode := []RedundancyMode{ModePlain, ModeTemporalDMR, ModeSpatialDMR, ModeTMR}[modeRaw%4]
		g, err := ComputeGuarantee(GuaranteeParams{
			PerOpFaultProb: p, CollisionProb: q, Mode: mode,
			BucketFactor: 2, BucketCeiling: 3, OpsPerInference: 100,
		})
		if err != nil {
			return false
		}
		sum := g.PCorrectAttempt + g.PSDCAttempt + g.PDetectedAttempt
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		return g.PSDCAttempt >= 0 && g.PDetectedAttempt >= -1e-12 &&
			g.PUndetectedPerInference >= 0 && g.PUndetectedPerInference <= 1 &&
			g.PAbortPerInference >= 0 && g.PAbortPerInference <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the guarantee is monotone in p — more faults, more risk.
func TestGuaranteeMonotoneInFaultRate(t *testing.T) {
	prev := -1.0
	for _, p := range []float64{1e-8, 1e-6, 1e-4, 1e-2} {
		g, err := ComputeGuarantee(GuaranteeParams{
			PerOpFaultProb: p, CollisionProb: 1.0 / 32,
			Mode: ModeTemporalDMR, BucketFactor: 2, BucketCeiling: 3,
			OpsPerInference: 1_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if g.PUndetectedPerInference < prev {
			t.Fatalf("SDC probability decreased as p grew at p=%v", p)
		}
		prev = g.PUndetectedPerInference
	}
}
