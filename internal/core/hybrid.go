package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// StageTimes is the per-stage wall-time breakdown of the classify
// pipeline: the reliable stage (edge convolution or DCNN prefix), the
// shape qualifier, and the batched non-reliable CNN. Each worker measures
// the chunks it processes, so across a pooled batch the fields are
// summed per-worker wall time — they can exceed the batch's wall clock
// when workers run in parallel, the same way CPU time can. Zero-valued
// when the caller did not ask for timing.
type StageTimes struct {
	Reliable  time.Duration `json:"reliable_ns"`
	Qualifier time.Duration `json:"qualifier_ns"`
	CNN       time.Duration `json:"cnn_ns"`
}

// Add accumulates other into s.
func (s *StageTimes) Add(other StageTimes) {
	s.Reliable += other.Reliable
	s.Qualifier += other.Qualifier
	s.CNN += other.CNN
}

// Wiring selects between the paper's two hybrid architectures.
type Wiring int

const (
	// WiringParallel is Figure 1: "maintain a shape-recognition functional
	// block in parallel with a CNN for a general classification". The
	// qualifier path is a reliably executed Sobel convolution on the
	// full-resolution input, independent of the CNN's weights.
	WiringParallel Wiring = iota + 1
	// WiringBifurcated is Figure 2: the first convolution layer (with its
	// Sobel-pre-initialised filters) IS the DCNN; it executes reliably,
	// and its output bifurcates into the remaining CNN layers and the
	// qualifier.
	WiringBifurcated
)

// String implements fmt.Stringer.
func (w Wiring) String() string {
	switch w {
	case WiringParallel:
		return "parallel"
	case WiringBifurcated:
		return "bifurcated"
	default:
		return fmt.Sprintf("wiring(%d)", int(w))
	}
}

// Decision is the verdict of the Reliable Result block.
type Decision int

const (
	// DecisionQualified: a safety-critical classification whose qualifier
	// confirmed the expected shape. Safe to act on.
	DecisionQualified Decision = iota + 1
	// DecisionRejected: a safety-critical classification the qualifier
	// did NOT confirm — "any shape recognised by a CNN is not a Stop sign
	// unless the shape has been confirmed as octagonal".
	DecisionRejected
	// DecisionNotSafetyRelevant: a class that needs no qualification
	// ("e.g., a parking prohibition can be used without qualification").
	DecisionNotSafetyRelevant
	// DecisionExecutionFailed: the reliable execution itself reported a
	// persistent error (bucket trip) — a detected unrecoverable error.
	DecisionExecutionFailed
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case DecisionQualified:
		return "qualified"
	case DecisionRejected:
		return "rejected"
	case DecisionNotSafetyRelevant:
		return "not-safety-relevant"
	case DecisionExecutionFailed:
		return "execution-failed"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Config assembles a hybrid network.
type Config struct {
	// Wiring selects Figure 1 (parallel) or Figure 2 (bifurcated).
	Wiring Wiring
	// Mode is the DCNN redundancy mode.
	Mode RedundancyMode
	// BucketFactor and BucketCeiling parameterise the leaky bucket
	// (defaults: the paper's 2 and 3).
	BucketFactor, BucketCeiling int
	// SafetyClasses maps a class label to the shape the qualifier must
	// confirm before the classification may be used.
	SafetyClasses map[int]shape.Class
	// Pair locates the Sobel filters in the first convolution layer
	// (bifurcated wiring only).
	Pair SobelPair
	// DCNNDepth is how many leading layers execute reliably in the
	// bifurcated wiring (default 1 — the paper's "one convolution layer";
	// deeper prefixes answer the Section V question of harnessing
	// subsequent layers, at the cost PrefixCost quantifies).
	DCNNDepth int
	// SobelKernel is the kernel size of the parallel wiring's standalone
	// edge stage (default 3).
	SobelKernel int
	// DownsampleFactor reduces the full-resolution input before the CNN
	// (parallel wiring only; default 1 = none).
	DownsampleFactor int
	// ALUs produces the processing elements for the reliable stage
	// (default: ideal).
	ALUs ALUFactory
	// Qualifier overrides the shape qualifier configuration (default:
	// shape.DefaultQualifierConfig).
	Qualifier *shape.QualifierConfig
}

// Result is the hybrid network's full output for one input, retaining every
// artefact a safety case would want to inspect.
type Result struct {
	// Class is the CNN's argmax class; Confidence its softmax probability.
	Class      int
	Confidence float32
	Probs      []float32
	// Decision is the Reliable Result verdict.
	Decision Decision
	// Qualifier is the shape qualifier's full result (zero when execution
	// failed before qualification).
	Qualifier shape.Result
	// Stats counts the reliable-execution work; Bucket snapshots the error
	// counter after the run.
	Stats  reliable.Stats
	Bucket reliable.Snapshot
	// ExecErr is the reliable-execution error for DecisionExecutionFailed.
	ExecErr error
}

// HybridNetwork is the assembled hybrid CNN.
type HybridNetwork struct {
	cfg       Config
	net       *nn.Sequential
	qualifier *shape.Qualifier

	// What the two wirings differ in, resolved once by NewHybridNetwork so
	// the classify path never asks which wiring it is.
	//
	// The reliably executed convolution — the standalone Sobel pair
	// (parallel) or the CNN's own conv1, sharing its weight storage
	// (bifurcated) — and the two output channels of it that carry Sobel-x
	// and Sobel-y for the qualifier.
	edgeBank *tensor.Tensor
	edgeBias []float32
	edgeSpec reliable.ConvSpec
	edgePair SobelPair
	// onSaliency: it convolves the image's colourfulness plane, not the image.
	onSaliency bool
	// cnnFrom is the layer at which the non-reliable CNN takes over. From 1
	// up the reliable stage executes layers [0, cnnFrom) and the CNN consumes
	// its output, so it cannot run after an execution failure. At 0 the CNN
	// consumes the (downsampled) image itself, owes nothing to the reliable
	// stage and still reports its opinion after a failure.
	cnnFrom int
}

// NewHybridNetwork wraps a trained CNN into a hybrid network.
func NewHybridNetwork(cfg Config, net *nn.Sequential) (*HybridNetwork, error) {
	if net == nil {
		return nil, fmt.Errorf("core: hybrid needs a CNN")
	}
	if _, err := cfg.Mode.PEs(); err != nil {
		return nil, err
	}
	if cfg.BucketFactor == 0 {
		cfg.BucketFactor = reliable.DefaultFactor
	}
	if cfg.BucketCeiling == 0 {
		cfg.BucketCeiling = reliable.DefaultCeiling
	}
	if cfg.SobelKernel == 0 {
		cfg.SobelKernel = 3
	}
	if cfg.DownsampleFactor == 0 {
		cfg.DownsampleFactor = 1
	}
	if cfg.DCNNDepth == 0 {
		cfg.DCNNDepth = 1
	}
	if cfg.DCNNDepth < 1 || cfg.DCNNDepth > net.Len() {
		return nil, fmt.Errorf("core: DCNN depth %d out of [1,%d]", cfg.DCNNDepth, net.Len())
	}
	if len(cfg.SafetyClasses) == 0 {
		return nil, fmt.Errorf("core: hybrid needs at least one safety-critical class")
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	qcfg := shape.DefaultQualifierConfig()
	if cfg.Qualifier != nil {
		qcfg = *cfg.Qualifier
	}
	q, err := shape.NewQualifier(qcfg)
	if err != nil {
		return nil, fmt.Errorf("core: hybrid qualifier: %w", err)
	}
	h := &HybridNetwork{cfg: cfg, net: net, qualifier: q}
	switch cfg.Wiring {
	case WiringParallel:
		// The edge stage convolves the single-channel saliency
		// (colourfulness) image at full resolution, independent of the CNN.
		if h.edgeBank, err = sobelBank(cfg.SobelKernel); err != nil {
			return nil, err
		}
		h.edgeSpec = reliable.ConvSpec{Stride: 1, Pad: cfg.SobelKernel / 2}
		h.edgePair = SobelPair{XIdx: 0, YIdx: 1}
		h.onSaliency = true
	case WiringBifurcated:
		if cfg.Pair.XIdx == cfg.Pair.YIdx {
			return nil, fmt.Errorf("core: bifurcated wiring needs a Sobel pair with distinct indices")
		}
		if cfg.Pair.XIdx < 0 || cfg.Pair.XIdx >= conv1.Filters() ||
			cfg.Pair.YIdx < 0 || cfg.Pair.YIdx >= conv1.Filters() {
			return nil, fmt.Errorf("core: Sobel pair (%d,%d) out of range [0,%d)",
				cfg.Pair.XIdx, cfg.Pair.YIdx, conv1.Filters())
		}
		// conv1 executes reliably; its output feeds both the qualifier (via
		// the Sobel channels) and the rest of the CNN.
		h.edgeBank, h.edgeBias = conv1.Weight(), conv1.Bias().Data()
		h.edgeSpec = reliable.ConvSpec{Stride: conv1.Stride(), Pad: conv1.Pad()}
		h.edgePair = cfg.Pair
		h.cnnFrom = cfg.DCNNDepth
	default:
		return nil, fmt.Errorf("core: unknown wiring %d", int(cfg.Wiring))
	}
	return h, nil
}

// sobelBank builds the parallel wiring's (2, 1, k, k) filter bank: Sobel-x
// then Sobel-y, each over the one saliency channel.
func sobelBank(k int) (*tensor.Tensor, error) {
	fx, err := shape.SobelX(k)
	if err != nil {
		return nil, err
	}
	fy, err := shape.SobelY(k)
	if err != nil {
		return nil, err
	}
	bank, err := tensor.New(2, 1, k, k)
	if err != nil {
		return nil, err
	}
	copy(bank.Data()[:k*k], fx.Data())
	copy(bank.Data()[k*k:], fy.Data())
	return bank, nil
}

// Net returns the wrapped CNN.
func (h *HybridNetwork) Net() *nn.Sequential { return h.net }

// Qualifier returns the shape qualifier.
func (h *HybridNetwork) Qualifier() *shape.Qualifier { return h.qualifier }

// Config returns the (normalised) configuration.
func (h *HybridNetwork) Config() Config { return h.cfg }

// Classify runs the hybrid pipeline on a full-resolution CHW image with a
// fresh context and reliable engine: a chunk of one through the same
// pipelined path every batch takes. It is safe to call concurrently on a
// shared HybridNetwork; for batches hold a BatchClassifier
// (NewBatchClassifier), whose workers each keep one context and engine
// across every image they serve.
func (h *HybridNetwork) Classify(img *tensor.Tensor) (Result, error) {
	w, err := h.newWorker()
	if err != nil {
		return Result{}, err
	}
	results := make([]Result, 1)
	if err := h.classifyChunkPipelined(w, []*tensor.Tensor{img}, nil, results, &StageTimes{}); err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// classifyChunkPipelined classifies a sub-batch of images through one
// worker's context and reliable engine, writing one Result per image. The
// pipeline splits into two stages:
//
//  1. Per sample: the reliable stage (edge convolution or the DCNN prefix,
//     whose overloaded MAC protocol is inherently per-image) and the shape
//     qualifier, with the leaky bucket reset before every image and the
//     work counters reported as per-image deltas.
//  2. Batched: the non-reliable CNN portion of every image that survived
//     stage 1 runs as ONE NCHW micro-batch — one blocked GEMM per layer for
//     the whole sub-batch instead of one per image (a chunk of one is a
//     batch of one through the same layers).
//
// pipes selects the pipeline per image: pipes[i] == PipelineCNN skips
// stage 1 (no reliable execution, no qualifier) for image i and routes it
// straight into the batched CNN. Fast images run the non-reliable prefix
// (the layers the reliable stage would have computed) as one micro-batch,
// then every surviving image — full and fast alike — coalesces into the
// SAME batched CNN continuation, so a mixed chunk still costs one GEMM per
// layer. nil pipes means PipelineFull for every image.
//
// The chunk's per-stage wall time is accumulated into st (reliable stage,
// qualifier, batched CNN) — one goroutine owns a chunk end to end, so plain
// additions suffice.
func (h *HybridNetwork) classifyChunkPipelined(w worker, imgs []*tensor.Tensor, pipes []Pipeline, results []Result, st *StageTimes) error {
	// Stage 1: reliable execution + qualifier, per sample — full-pipeline
	// images only.
	cnnIns := make([]*tensor.Tensor, 0, len(imgs))
	idxs := make([]int, 0, len(imgs))
	var fastImgs []*tensor.Tensor
	var fastIdxs []int
	for i, img := range imgs {
		if pipes != nil && pipes[i] == PipelineCNN {
			fastImgs, fastIdxs = append(fastImgs, img), append(fastIdxs, i)
			continue
		}
		w.engine.Bucket().Reset()
		before := w.engine.Stats()
		qBefore := st.Qualifier
		stageStart := time.Now()
		cnnIn, err := h.reliableStage(w.engine, img, &results[i], st)
		// The qualifier ran inside reliableStage and booked its own time;
		// the reliable span is the remainder.
		st.Reliable += time.Since(stageStart) - (st.Qualifier - qBefore)
		// The engine accumulates across the chunk; report the per-inference
		// delta, matching Classify's fresh-engine counters.
		results[i].Stats.Sub(before)
		if err != nil {
			return err
		}
		if cnnIn != nil {
			cnnIns = append(cnnIns, cnnIn)
			idxs = append(idxs, i)
		}
	}
	// Stage 2: the CNN portion, micro-batched. Fast images first run the
	// non-reliable prefix so they enter the continuation at the same layer
	// as the reliably computed feature maps; the prefix is CNN work and is
	// booked as such.
	cnnStart := time.Now()
	fast, err := h.fastEntries(w.ctx, fastImgs)
	if err == nil {
		err = h.cnnStage(w.ctx, append(cnnIns, fast...), append(idxs, fastIdxs...), results)
	}
	st.CNN += time.Since(cnnStart)
	return err
}

// cnnImage is what the CNN classifies when it consumes the image itself
// (cnnFrom == 0): the box-downsampled view, or the image as it is at
// factor 1.
func (h *HybridNetwork) cnnImage(img *tensor.Tensor) (*tensor.Tensor, error) {
	if h.cfg.DownsampleFactor <= 1 {
		return img, nil
	}
	return BoxDownsample(img, h.cfg.DownsampleFactor)
}

// fastEntries computes the CNN-stage entry tensor for every fast-pipeline
// image — what the reliable stage would have handed over, computed without
// it. When the CNN consumes the image that is the (possibly downsampled)
// image; otherwise the images run the non-reliable batched prefix
// [0, cnnFrom) so they arrive at the same layer as the reliable stage's
// output, same-shaped fast images sharing one batched prefix pass.
func (h *HybridNetwork) fastEntries(ctx *nn.Context, imgs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if h.cnnFrom > 0 {
		entries, err := h.net.ForwardSamples(ctx, 0, h.cnnFrom, imgs)
		if err != nil {
			return nil, fmt.Errorf("core: fast prefix: %w", err)
		}
		return entries, nil
	}
	entries := make([]*tensor.Tensor, len(imgs))
	for j, img := range imgs {
		var err error
		if entries[j], err = h.cnnImage(img); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// reliableStage runs everything except the non-reliable CNN for one image:
// the reliably executed convolution, the rest of the DCNN prefix when the
// CNN takes over later than layer 1, and — when execution succeeds — the
// shape qualifier on the convolution's Sobel channels. It fills
// res.Stats/Bucket/Qualifier and, on a bucket trip, res.Decision/ExecErr.
// It returns the tensor the CNN stage should consume: the reliably computed
// feature map (nil after an execution failure, because the CNN cannot run
// without it) or, when the CNN consumes the image itself, the (possibly
// downsampled) image — returned even after a failure, whose Result still
// reports the CNN's opinion. Qualifier wall time is booked into
// st.Qualifier so the caller can split it out of the stage total.
func (h *HybridNetwork) reliableStage(engine *reliable.Engine, img *tensor.Tensor, res *Result, st *StageTimes) (*tensor.Tensor, error) {
	in := img
	if h.onSaliency && img.Rank() == 3 && img.Dim(0) == 3 {
		// Deterministic saliency preprocessing: traffic-sign faces are
		// saturated, so the colourfulness channel separates the sign from
		// grey background and clutter. It is a bounded per-pixel min/max
		// with no accumulation — the class of operation the paper's
		// qualifier is allowed to treat as deterministically verifiable.
		col, err := shape.Colorfulness(img)
		if err != nil {
			return nil, err
		}
		if in, err = col.Reshape(1, col.Dim(0), col.Dim(1)); err != nil {
			return nil, err
		}
	}
	// The convolution is a direct call, not the first step of the prefix
	// walk: the qualifier needs its output, not the prefix tail.
	features, execErr := reliable.Conv2D(engine, in, h.edgeBank, h.edgeBias, h.edgeSpec)
	cnnIn := features
	if execErr == nil && h.cnnFrom > 1 {
		// The generalised DCNN: continue the reliable prefix beyond conv1
		// before handing over to the non-reliable CNN.
		cnnIn, execErr = ExecuteLayers(engine, h.net, 1, h.cnnFrom, features)
	}
	res.Stats = engine.Stats()
	res.Bucket = engine.Bucket().Snapshot()
	if h.cnnFrom == 0 {
		var err error
		if cnnIn, err = h.cnnImage(img); err != nil {
			return nil, err
		}
	}
	if execErr != nil {
		if !errors.Is(execErr, reliable.ErrBucketTripped) {
			return nil, execErr
		}
		res.Decision = DecisionExecutionFailed
		res.ExecErr = execErr
		return cnnIn, nil
	}
	// Qualifier path: edge magnitude from the reliably computed Sobel
	// channels — under the bifurcated wiring, of the SAME feature map the
	// CNN consumes.
	qStart := time.Now()
	mag, err := EdgeMagnitudeFromChannels(features, h.edgePair)
	if err != nil {
		return nil, err
	}
	qres, err := h.qualifier.QualifyEdgeMap(mag)
	st.Qualifier += time.Since(qStart)
	if err != nil {
		return nil, fmt.Errorf("core: qualifier: %w", err)
	}
	res.Qualifier = qres
	return cnnIn, nil
}

// cnnStage runs the non-reliable CNN portion over the surviving images of a
// chunk — idxs[j] is the position of cnnIns[j] in results — filling
// class/confidence/probs and the Reliable Result decision. Images of one
// common shape pack into a single NCHW micro-batch (one GEMM per layer);
// ragged shapes run one batch per shape.
func (h *HybridNetwork) cnnStage(ctx *nn.Context, cnnIns []*tensor.Tensor, idxs []int, results []Result) error {
	logits, err := h.net.ForwardSamples(ctx, h.cnnFrom, h.net.Len(), cnnIns)
	if err != nil {
		return fmt.Errorf("core: CNN path: %w", err)
	}
	for j, i := range idxs {
		res := &results[i]
		probs, class, err := nn.SoftmaxArgmax(logits[j])
		if err != nil {
			return err
		}
		res.Probs, res.Class, res.Confidence = probs, class, probs[class]
		// Unless the reliable stage already ruled (execution failure).
		if res.Decision != DecisionExecutionFailed {
			h.decide(res)
		}
	}
	return nil
}

// decide implements the Reliable Result block.
func (h *HybridNetwork) decide(res *Result) {
	required, critical := h.cfg.SafetyClasses[res.Class]
	if !critical {
		res.Decision = DecisionNotSafetyRelevant
		return
	}
	if res.Qualifier.Class == required {
		res.Decision = DecisionQualified
		return
	}
	res.Decision = DecisionRejected
}
