package repro_test

// End-to-end integration tests over the public facade: the flows a
// downstream adopter would build, exercised across package boundaries.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/onnxlite"
	"repro/internal/shape"
	"repro/internal/train"
)

var (
	sharedNetOnce sync.Once
	sharedNet     *repro.Network
	sharedNetErr  error
)

// buildTrainedHybrid assembles the canonical pipeline: data → CNN with a
// pinned Sobel pair → training → hybrid wrap. The trained network is built
// once and shared (tests only read it).
func buildTrainedHybrid(t *testing.T, mode repro.RedundancyMode) (*repro.HybridNetwork, *repro.Network) {
	t.Helper()
	sharedNetOnce.Do(func() { sharedNet, sharedNetErr = buildTrainedNet() })
	if sharedNetErr != nil {
		t.Fatal(sharedNetErr)
	}
	net := sharedNet
	h, err := repro.NewHybridNetwork(repro.HybridConfig{
		Mode:          mode,
		Pair:          core.SobelPair{XIdx: 0, YIdx: 1},
		SafetyClasses: map[int]repro.ShapeClass{repro.StopClass: repro.ClassOctagon},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	return h, net
}

func buildTrainedNet() (*repro.Network, error) {
	rng := rand.New(rand.NewSource(101))
	ds, err := gtsrb.Generate(gtsrb.Config{Size: 32, PerClass: 14}, rng)
	if err != nil {
		return nil, err
	}
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 32, Conv1Filters: 10, Conv1Kernel: 5,
		Conv2Filters: 12, Hidden: 32, Classes: 6, UseLRN: true,
	}, rng)
	if err != nil {
		return nil, err
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	pair, err := core.InstallSobelPair(conv1, 0, 1)
	if err != nil {
		return nil, err
	}
	freeze, err := train.NewFilterFreeze(conv1, train.FreezeHard, pair.XIdx, pair.YIdx)
	if err != nil {
		return nil, err
	}
	opt, err := train.NewSGD(0.03, 0.9, 1e-4)
	if err != nil {
		return nil, err
	}
	tr := &train.Trainer{Net: net, Opt: opt, BatchSize: 8, Epochs: 8,
		Freezes: []*train.FilterFreeze{freeze}, Rng: rng}
	if _, err := tr.Fit(ds); err != nil {
		return nil, err
	}
	return net, nil
}

func TestEndToEndTrainedHybridPipeline(t *testing.T) {
	h, net := buildTrainedHybrid(t, repro.ModeTemporalDMR)

	// The Sobel pair stayed pinned through training (hard freeze): filter 0
	// still equals the uniform Sobel-x kernel.
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	wantX, err := core.UniformSobelX(conv1.Kernel(), conv1.InChannels())
	if err != nil {
		t.Fatal(err)
	}
	gotX, err := conv1.Weight().Filter(0)
	if err != nil {
		t.Fatal(err)
	}
	if !gotX.Equal(wantX) {
		t.Error("hard-frozen Sobel filter moved during training")
	}

	// Batch of rendered signs: every stop-qualified decision must be an
	// octagon-confirmed stop, and no decision may violate the gating
	// invariants.
	rng := rand.New(rand.NewSource(102))
	cfg, err := gtsrb.Config{Size: 32}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	classes := gtsrb.StandardClasses()
	for i := 0; i < 18; i++ {
		spec := classes[i%len(classes)]
		img, err := gtsrb.Render(gtsrb.RandomParams(cfg, spec, rng), rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		switch res.Decision {
		case repro.DecisionQualified:
			if res.Class != repro.StopClass {
				t.Errorf("qualified decision for non-safety class %d", res.Class)
			}
			if res.Qualifier.Class != repro.ClassOctagon {
				t.Errorf("qualified without octagon confirmation: %v", res.Qualifier.Class)
			}
		case repro.DecisionRejected:
			if res.Class != repro.StopClass {
				t.Errorf("rejected decision for non-safety class %d", res.Class)
			}
		case repro.DecisionNotSafetyRelevant:
			if res.Class == repro.StopClass {
				t.Error("stop classification escaped qualification")
			}
		case repro.DecisionExecutionFailed:
			t.Error("execution failed on fault-free hardware")
		default:
			t.Errorf("unknown decision %v", res.Decision)
		}
	}
}

func TestEndToEndModelDocumentRoundTrip(t *testing.T) {
	h, net := buildTrainedHybrid(t, repro.ModePlain)
	cfg := h.Config()
	model, err := onnxlite.Export(net, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := onnxlite.Write(model, &buf); err != nil {
		t.Fatal(err)
	}
	model2, err := onnxlite.ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	net2, cfg2, err := onnxlite.Import(model2, rand.New(rand.NewSource(103)))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := repro.NewHybridNetwork(*cfg2, net2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := gtsrb.AngledStopSign(32, rand.New(rand.NewSource(104)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h2.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if a.Class != b.Class || a.Decision != b.Decision {
		t.Errorf("deployed document disagrees with source: (%d,%v) vs (%d,%v)",
			a.Class, a.Decision, b.Class, b.Decision)
	}
}

func TestEndToEndFaultCampaignMatchesGuarantee(t *testing.T) {
	// Run the hybrid under moderate transient injection and check that the
	// analytic guarantee's qualitative predictions hold: no silent
	// corruption of the DCNN output, occasional corrected retries.
	_, net := buildTrainedHybrid(t, repro.ModeTemporalDMR)
	conv1, err := nn.FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	pair := core.SobelPair{XIdx: 0, YIdx: 1}

	img, err := gtsrb.AngledStopSign(32, rand.New(rand.NewSource(105)))
	if err != nil {
		t.Fatal(err)
	}
	// Reference run on ideal hardware.
	clean, err := mustHybrid(t, net, pair, nil).Classify(img)
	if err != nil {
		t.Fatal(err)
	}

	seed := int64(0)
	sawRetry := false
	for trial := 0; trial < 10; trial++ {
		h := mustHybrid(t, net, pair, func() fault.ALU {
			seed++
			alu, err := fault.NewTransient(2e-7, fault.BitFlip{Bit: -1},
				rand.New(rand.NewSource(5000+seed)))
			if err != nil {
				panic(err)
			}
			return alu
		})
		res, err := h.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision == repro.DecisionExecutionFailed {
			continue // rare burst: availability loss, not a safety loss
		}
		if res.Class != clean.Class || res.Qualifier.Class != clean.Qualifier.Class {
			t.Errorf("trial %d: corrected execution changed the verdict", trial)
		}
		if res.Stats.Retries > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Log("no retries observed at this rate (acceptable, but the test is weaker)")
	}
	_ = conv1
}

func mustHybrid(t *testing.T, net *repro.Network, pair core.SobelPair, alus core.ALUFactory) *repro.HybridNetwork {
	t.Helper()
	h, err := repro.NewHybridNetwork(repro.HybridConfig{
		Mode: repro.ModeTemporalDMR,
		Pair: pair, ALUs: alus,
		SafetyClasses: map[int]repro.ShapeClass{repro.StopClass: repro.ClassOctagon},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGuaranteeFacade(t *testing.T) {
	g, err := repro.ComputeGuarantee(repro.GuaranteeParams{
		PerOpFaultProb: 1e-9, CollisionProb: 1.0 / 32,
		Mode: repro.ModeTemporalDMR, BucketFactor: 2, BucketCeiling: 3,
		OpsPerInference: 1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.PUndetectedPerInference <= 0 || g.PUndetectedPerInference > 1e-9 {
		t.Errorf("per-inference SDC %v outside expected band", g.PUndetectedPerInference)
	}
}

func TestFacadeSymbols(t *testing.T) {
	// The re-exported enumerations must match the internal values (type
	// aliases make this a compile-time identity, but exercising them keeps
	// the facade honest if it ever switches to distinct types).
	if repro.ModePlain != core.ModePlain || repro.ClassOctagon != shape.ClassOctagon {
		t.Error("facade constants diverged")
	}
	var b repro.LeakyBucket
	if b.Fail() {
		t.Error("zero-value bucket should not trip on first error")
	}
}
