package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/serve"
	"repro/internal/shape"
	"repro/internal/tensor"
)

const (
	demoSize    = 32
	demoFilters = 16
	// modelSeed fixes the weights: --seed varies the inputs only, so the
	// program under test is the same program on every run.
	modelSeed = 1
	// imageCount is the size of the seeded image set the demo-model
	// workloads draw from.
	imageCount = 64
)

// imageSet is the seeded input of the demo-model workloads: rendered signs
// over all six standard classes plus the angled stop sign of Figure 3. The
// tensors are what a PNG round trip leaves of the rendering, so the
// in-process workloads and the HTTP one classify the same pixels.
type imageSet struct {
	imgs   []*tensor.Tensor
	bodies [][]byte // POST /classify bodies, one per image
	stop   []bool   // the image shows a stop sign
	render time.Duration
	encode time.Duration
}

func newImageSet(seed int64) (*imageSet, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg, err := gtsrb.Config{Size: demoSize}.Normalize()
	if err != nil {
		return nil, err
	}
	classes := gtsrb.StandardClasses()
	set := &imageSet{}
	for i := 0; i < imageCount; i++ {
		kind := i % (len(classes) + 1)
		t0 := time.Now()
		var img *tensor.Tensor
		if kind == len(classes) {
			img, err = gtsrb.AngledStopSign(demoSize, rng)
		} else {
			img, err = gtsrb.Render(gtsrb.RandomParams(cfg, classes[kind], rng), rng)
		}
		if err != nil {
			return nil, fmt.Errorf("render image %d: %w", i, err)
		}
		t1 := time.Now()
		var png bytes.Buffer
		if err := gtsrb.WritePNG(img, &png); err != nil {
			return nil, fmt.Errorf("encode image %d: %w", i, err)
		}
		body, err := json.Marshal(map[string]string{
			"image_png": base64.StdEncoding.EncodeToString(png.Bytes()),
		})
		if err != nil {
			return nil, err
		}
		set.render += t1.Sub(t0)
		set.encode += time.Since(t1)
		decoded, err := gtsrb.ReadPNG(bytes.NewReader(png.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("decode image %d: %w", i, err)
		}
		set.imgs = append(set.imgs, decoded)
		set.bodies = append(set.bodies, body)
		set.stop = append(set.stop, kind == gtsrb.StopClass || kind == len(classes))
	}
	return set, nil
}

// demoModel builds the model every demo workload runs: the micro network
// with the Sobel pair installed, bifurcated wiring, temporal DMR, ideal ALUs.
func demoModel() (*core.HybridNetwork, *nn.Sequential, error) {
	return cli.DemoHybrid(demoSize, demoFilters, modelSeed)
}

// golden is the expected answer for one image through one pipeline.
type golden struct {
	class    int
	conf     float32
	decision core.Decision
	shape    shape.Class
	ops      uint64
}

// oracle holds the golden answers for an image set, computed without the
// path under test: the full pipeline from the unprotected native
// convolution, the qualifier and the network tail; the CNN-only pipeline
// from a whole-network per-sample forward pass.
type oracle struct {
	full, cnn []golden
}

func decide(h *core.HybridNetwork, class int, got shape.Class) core.Decision {
	want, critical := h.Config().SafetyClasses[class]
	switch {
	case !critical:
		return core.DecisionNotSafetyRelevant
	case got == want:
		return core.DecisionQualified
	default:
		return core.DecisionRejected
	}
}

func newOracle(h *core.HybridNetwork, imgs []*tensor.Tensor) (*oracle, error) {
	net := h.Net()
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	if conv1.Pad() != 0 {
		return nil, fmt.Errorf("oracle: op count assumes an unpadded first convolution, got pad %d", conv1.Pad())
	}
	spec := reliable.ConvSpec{Stride: conv1.Stride(), Pad: conv1.Pad()}
	ctx := nn.NewContext()
	or := &oracle{}
	for i, img := range imgs {
		features, err := reliable.NativeConv2D(img, conv1.Weight(), conv1.Bias().Data(), spec)
		if err != nil {
			return nil, fmt.Errorf("oracle image %d: %w", i, err)
		}
		mag, err := core.EdgeMagnitudeFromChannels(features, h.Config().Pair)
		if err != nil {
			return nil, err
		}
		q, err := h.Qualifier().QualifyEdgeMap(mag)
		if err != nil {
			return nil, fmt.Errorf("oracle image %d: %w", i, err)
		}
		logits, err := net.ForwardFrom(ctx, h.Config().DCNNDepth, features)
		if err != nil {
			return nil, fmt.Errorf("oracle image %d: %w", i, err)
		}
		probs, class, err := nn.SoftmaxArgmax(logits)
		if err != nil {
			return nil, err
		}
		// Temporal DMR counts one attempt per multiply and one per add; with
		// no padding every output sees the whole kernel.
		macs := uint64(features.Len()) * uint64(conv1.InChannels()*conv1.Kernel()*conv1.Kernel())
		or.full = append(or.full, golden{
			class: class, conf: probs[class], decision: decide(h, class, q.Class),
			shape: q.Class, ops: 2 * macs,
		})

		logits, err = net.Forward(ctx, img)
		if err != nil {
			return nil, fmt.Errorf("oracle image %d: %w", i, err)
		}
		probs, class, err = nn.SoftmaxArgmax(logits)
		if err != nil {
			return nil, err
		}
		// No qualifier ran, so a safety class must come back rejected.
		or.cnn = append(or.cnn, golden{
			class: class, conf: probs[class], decision: decide(h, class, 0),
		})
	}
	return or, nil
}

// confTolerance absorbs the rounding between a per-sample and a batched
// pass, and the float32 a confidence keeps through JSON.
const confTolerance = 1e-4

// mismatch describes how an answer differs from the golden one, or returns
// "" when it matches.
func (g golden) mismatch(class int, conf float32, decision string, shp string, ops uint64) string {
	switch {
	case class != g.class:
		return fmt.Sprintf("class %d, want %d", class, g.class)
	case math.Abs(float64(conf-g.conf)) > confTolerance:
		return fmt.Sprintf("confidence %v, want %v", conf, g.conf)
	case decision != g.decision.String():
		return fmt.Sprintf("decision %s, want %s", decision, g.decision)
	case shp != g.shape.String():
		return fmt.Sprintf("qualifier shape %s, want %s", shp, g.shape)
	case ops != g.ops:
		return fmt.Sprintf("reliable ops %d, want %d", ops, g.ops)
	}
	return ""
}

func (g golden) mismatchResult(r core.Result) string {
	return g.mismatch(r.Class, r.Confidence, r.Decision.String(), r.Qualifier.Class.String(), r.Stats.Ops)
}

// pick returns the golden answer a request of the given class must get:
// fast and degraded requests run the CNN only.
func (o *oracle) pick(img int, class serve.Class, degraded bool) golden {
	if class == serve.ClassFast || degraded {
		return o.cnn[img]
	}
	return o.full[img]
}

// classMix draws the sched-saturate service classes: guaranteed 0.7, fast
// 0.2, budget 0.1.
func classMix(rng *rand.Rand) serve.Class {
	switch u := rng.Float64(); {
	case u < 0.7:
		return serve.ClassGuaranteed
	case u < 0.9:
		return serve.ClassFast
	default:
		return serve.ClassBudget
	}
}
