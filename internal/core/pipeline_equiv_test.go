package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// TestClassifyBatchPipelinedEquivalence is the service-class pinning test:
//
//   - Full-pipeline riders of a mixed batch must be bit-identical to the
//     nil-pipes path every request took before service classes existed —
//     class, decision, qualifier, reliable-work counters AND every softmax
//     probability. Mixing fast riders into the batch changes the CNN
//     continuation's batch width, and the GEMM kernels are batch-width
//     independent, so nothing may move.
//   - Fast (CNN-only) riders must be bit-identical to the all-CNN batched
//     pipeline, must agree with an independent whole-net forward of the
//     image, and must carry the degraded contract: zero
//     qualifier, zero reliable-work counters, and DecisionRejected for
//     safety-critical argmax classes (no qualifier ran, so the reliable
//     guarantee cannot be claimed).
func TestClassifyBatchPipelinedEquivalence(t *testing.T) {
	h, imgs := trainedHybrid(t, 8, 23)

	c, err := h.NewBatchClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-class path: nil pipes, every image full pipeline.
	wantFull, _, err := c.ClassifyBatchPipelined(imgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The degraded/fast path: every image batched CNN only.
	allCNN := make([]Pipeline, len(imgs))
	for i := range allCNN {
		allCNN[i] = PipelineCNN
	}
	wantFast, fastStages, err := c.ClassifyBatchPipelined(imgs, allCNN)
	if err != nil {
		t.Fatal(err)
	}
	if fastStages.Reliable != 0 || fastStages.Qualifier != 0 {
		t.Errorf("all-CNN batch booked reliable=%v qualifier=%v, want zero",
			fastStages.Reliable, fastStages.Qualifier)
	}
	if fastStages.CNN <= 0 {
		t.Error("all-CNN batch booked no CNN time")
	}

	// Independent fast reference: a whole-net forward of the image as a
	// batch of one — the prefix+continuation reduces to exactly this, bit
	// for bit.
	ctx := nn.NewContext()
	for i, img := range imgs {
		logits, err := h.Net().Forward(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		probs, class, err := nn.SoftmaxArgmax(logits)
		if err != nil {
			t.Fatal(err)
		}
		fr := wantFast[i]
		if fr.Class != class {
			t.Errorf("img %d: fast class %d != whole-net forward %d", i, fr.Class, class)
		}
		for k := range probs {
			if probs[k] != fr.Probs[k] {
				t.Errorf("img %d: fast prob[%d]=%g vs forward %g", i, k, fr.Probs[k], probs[k])
			}
		}
		// The degraded contract: no qualifier ran, no reliable work was
		// counted, and the decision is what decide() rules with a zero
		// qualifier — Rejected for safety-critical classes.
		if fr.Qualifier.Class != 0 || fr.Qualifier.Series != nil {
			t.Errorf("img %d: fast result carries a qualifier verdict %+v", i, fr.Qualifier)
		}
		if fr.Stats != (reliable.Stats{}) {
			t.Errorf("img %d: fast result counted reliable work %+v", i, fr.Stats)
		}
		wantRes := Result{Class: class}
		h.decide(&wantRes)
		if fr.Decision != wantRes.Decision {
			t.Errorf("img %d: fast decision %v, want %v", i, fr.Decision, wantRes.Decision)
		}
		if _, critical := h.Config().SafetyClasses[class]; critical && fr.Decision != DecisionRejected {
			t.Errorf("img %d: unqualified safety-critical class %d decided %v, want rejected",
				i, class, fr.Decision)
		}
	}

	// Mixed batches: alternate full/fast riders through both a
	// single-worker and a multi-worker pool. Full riders must match the
	// pre-class path and fast riders the all-CNN path, bit for bit.
	pipes := make([]Pipeline, len(imgs))
	for i := range pipes {
		if i%2 == 1 {
			pipes[i] = PipelineCNN
		}
	}
	for _, workers := range []int{1, 3} {
		cw, err := h.NewBatchClassifier(workers)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cw.ClassifyBatchPipelined(imgs, pipes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := wantFull[i]
			kind := "full"
			if pipes[i] == PipelineCNN {
				want = wantFast[i]
				kind = "fast"
			}
			if got[i].Class != want.Class || got[i].Decision != want.Decision ||
				got[i].Confidence != want.Confidence ||
				got[i].Qualifier.Class != want.Qualifier.Class ||
				got[i].Stats != want.Stats {
				t.Errorf("workers=%d img %d (%s rider): (%d,%v,%g,%v,%+v) != unmixed (%d,%v,%g,%v,%+v)",
					workers, i, kind,
					got[i].Class, got[i].Decision, got[i].Confidence, got[i].Qualifier.Class, got[i].Stats,
					want.Class, want.Decision, want.Confidence, want.Qualifier.Class, want.Stats)
			}
			for k := range want.Probs {
				if got[i].Probs[k] != want.Probs[k] {
					t.Errorf("workers=%d img %d (%s rider): prob[%d] %g != unmixed %g — mixing the batch moved a probability",
						workers, i, kind, k, got[i].Probs[k], want.Probs[k])
				}
			}
		}
	}
}

// TestClassifyBatchRefusesMixedShapes: a chunk's CNN stage runs its images
// as one packed batch, so a chunk whose images disagree in shape is an
// error, on the full pipeline and the fast one alike. The network is
// convolution-only so that each size alone is a legal input.
func TestClassifyBatchRefusesMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	conv1, err := nn.NewConv2D("conv1", 3, 4, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewSequential("convnet", conv1, nn.NewReLU("relu"), nn.NewFlatten("flatten"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := InstallSobelPair(conv1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybridNetwork(Config{Mode: ModeTemporalDMR, Pair: pair, SafetyClasses: defaultSafety()}, net)
	if err != nil {
		t.Fatal(err)
	}
	var imgs []*tensor.Tensor
	for _, size := range []int{32, 24, 32, 24} {
		img, err := gtsrb.AngledStopSign(size, rng)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	cnnOnly := []Pipeline{PipelineCNN, PipelineCNN, PipelineCNN, PipelineCNN}
	for _, workers := range []int{1, 2} {
		c, err := h.NewBatchClassifier(workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, pipes := range [][]Pipeline{nil, cnnOnly} {
			if _, _, err := c.ClassifyBatchPipelined(imgs, pipes); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
				t.Errorf("workers=%d pipes=%v: mixed-shape batch gave %v, want a shape mismatch", workers, pipes, err)
			}
		}
	}
}
