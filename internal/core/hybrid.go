package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// StageTimes is the per-stage wall-time breakdown of the classify
// pipeline: the reliable stage (conv1), the shape qualifier, and the
// batched non-reliable CNN. Each worker measures the chunks it processes,
// so across a pooled batch the fields are summed per-worker wall time —
// they can exceed the batch's wall clock when workers run in parallel, the
// same way CPU time can. Zero-valued when the caller did not ask for timing.
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
	// persistent error (bucket trip) — a detected unrecoverable error. The
	// CNN consumes the reliable stage's output, so it does not run: Class,
	// Confidence and Probs stay zero.
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

// Config assembles a hybrid network in the paper's bifurcated wiring
// (Figure 2): the CNN's first convolution layer, with its
// Sobel-pre-initialised filters, executes reliably, and its output feeds
// both the shape qualifier (through the Sobel pair's channels) and the rest
// of the CNN.
type Config struct {
	// Mode is the DCNN redundancy mode.
	Mode RedundancyMode
	// BucketFactor and BucketCeiling parameterise the leaky bucket
	// (defaults: the paper's 2 and 3).
	BucketFactor, BucketCeiling int
	// SafetyClasses maps a class label to the shape the qualifier must
	// confirm before the classification may be used.
	SafetyClasses map[int]shape.Class
	// Pair locates the Sobel filters in the first convolution layer.
	Pair SobelPair
	// DCNNDepth reads back how many leading layers execute reliably: always
	// 1, the paper's "one convolution layer", after which the non-reliable
	// CNN takes over. 0 normalises to 1; any other value is refused.
	DCNNDepth int
	// ALUs produces the processing elements for the reliable stage
	// (default: ideal).
	ALUs ALUFactory
}

// cnnFrom is the layer at which the non-reliable CNN takes over: conv1, at
// layer 0, is the whole reliable stage.
const cnnFrom = 1

// Result is the hybrid network's full output for one input, retaining every
// artefact a safety case would want to inspect.
type Result struct {
	// Class is the CNN's argmax class; Confidence its softmax probability
	// (all zero when execution failed).
	Class      int
	Confidence float32
	Probs      []float32
	// Decision is the Reliable Result verdict.
	Decision Decision
	// Qualifier is the shape qualifier's full result (zero when execution
	// failed).
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
	// conv1 is the reliably executed convolution; its Pair channels feed
	// the qualifier.
	conv1 *nn.Conv2D
	// workers recycles Classify's *worker across calls on the default
	// (ideal, stateless) ALUs; see Classify.
	workers sync.Pool
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
	if cfg.DCNNDepth == 0 {
		cfg.DCNNDepth = cnnFrom
	}
	if cfg.DCNNDepth != cnnFrom {
		return nil, fmt.Errorf("core: DCNN depth %d, want %d: conv1 is the whole reliable stage", cfg.DCNNDepth, cnnFrom)
	}
	if len(cfg.SafetyClasses) == 0 {
		return nil, fmt.Errorf("core: hybrid needs at least one safety-critical class")
	}
	layer0, err := net.Layer(0)
	if err != nil {
		return nil, err
	}
	conv1, ok := layer0.(*nn.Conv2D)
	if !ok {
		return nil, fmt.Errorf("core: hybrid needs a convolution at layer 0, got %T", layer0)
	}
	if cfg.Pair.XIdx == cfg.Pair.YIdx {
		return nil, fmt.Errorf("core: hybrid needs a Sobel pair with distinct indices")
	}
	if cfg.Pair.XIdx < 0 || cfg.Pair.XIdx >= conv1.Filters() ||
		cfg.Pair.YIdx < 0 || cfg.Pair.YIdx >= conv1.Filters() {
		return nil, fmt.Errorf("core: Sobel pair (%d,%d) out of range [0,%d)",
			cfg.Pair.XIdx, cfg.Pair.YIdx, conv1.Filters())
	}
	q, err := shape.NewQualifier()
	if err != nil {
		return nil, fmt.Errorf("core: hybrid qualifier: %w", err)
	}
	return &HybridNetwork{cfg: cfg, net: net, qualifier: q, conv1: conv1}, nil
}

// Net returns the wrapped CNN.
func (h *HybridNetwork) Net() *nn.Sequential { return h.net }

// Qualifier returns the shape qualifier.
func (h *HybridNetwork) Qualifier() *shape.Qualifier { return h.qualifier }

// Config returns the (normalised) configuration.
func (h *HybridNetwork) Config() Config { return h.cfg }

// Classify runs the hybrid pipeline on a full-resolution CHW image: a chunk
// of one through the same pipelined path every batch takes. It does not
// build a context and engine per call: on the default ALUs (Config.ALUs
// nil) it takes a worker from a pool on the network and returns it after
// the image, so the worker's scratch — forward buffers, the row path's twin
// and masks — is reused. That is exact because the bucket is reset before
// every image and the counters are per-image deltas. A custom ALU factory
// may hand out stateful ALUs (fault injection), so with one every call
// builds a fresh worker and the factory's ALUs serve one image each. It is
// safe to call concurrently on a shared HybridNetwork; for batches hold a
// BatchClassifier (NewBatchClassifier), whose workers each keep one context
// and engine across every image they serve.
func (h *HybridNetwork) Classify(img *tensor.Tensor) (Result, error) {
	w, ok := h.workers.Get().(*worker)
	if !ok {
		nw, err := h.newWorker()
		if err != nil {
			return Result{}, err
		}
		w = &nw
	}
	var results [1]Result
	err := h.classifyChunkPipelined(w, []*tensor.Tensor{img}, nil, results[:], &StageTimes{})
	if h.cfg.ALUs == nil {
		h.workers.Put(w)
	}
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// classifyChunkPipelined classifies a sub-batch of images through one
// worker's context and reliable engine, writing one Result per image. The
// pipeline splits into two stages:
//
//  1. Per sample: the reliable stage (conv1, whose overloaded MAC
//     protocol is inherently per-image) and the shape qualifier, with
//     the leaky bucket reset before every image and the work counters
//     reported as per-image deltas.
//  2. Batched: the non-reliable CNN portion of every image that survived
//     stage 1 runs as ONE NCHW micro-batch — one blocked GEMM per layer for
//     the whole sub-batch instead of one per image (a chunk of one is a
//     batch of one through the same layers).
//
// pipes selects the pipeline per image: pipes[i] == PipelineCNN skips
// stage 1 (no reliable execution, no qualifier) for image i and routes it
// straight into the batched CNN. Fast images run conv1 non-reliably (the
// layer the reliable stage would have computed) as one micro-batch,
// then every surviving image — full and fast alike — coalesces into the
// SAME batched CNN continuation, so a mixed chunk still costs one GEMM per
// layer. nil pipes means PipelineFull for every image.
//
// The chunk's per-stage wall time is accumulated into st (reliable stage,
// qualifier, batched CNN) — one goroutine owns a chunk end to end, so plain
// additions suffice.
func (h *HybridNetwork) classifyChunkPipelined(w *worker, imgs []*tensor.Tensor, pipes []Pipeline, results []Result, st *StageTimes) error {
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
		var reuse *tensor.Tensor // see worker.conv1Out
		if len(imgs) == 1 {
			reuse = w.conv1Out
		}
		cnnIn, err := h.reliableStage(w, reuse, img, &results[i], st)
		if len(imgs) == 1 && cnnIn != nil {
			w.conv1Out = cnnIn
		}
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
	// Stage 2: the CNN portion, micro-batched. Fast images first run conv1
	// non-reliably so they enter the continuation at the same layer as the
	// reliably computed feature maps, all of them in one batched pass; that
	// conv1 is CNN work and is booked as such.
	cnnStart := time.Now()
	fast, err := h.net.ForwardSamples(w.ctx, 0, cnnFrom, fastImgs)
	if err != nil {
		err = fmt.Errorf("core: fast conv1: %w", err)
	} else {
		err = h.cnnStage(w.ctx, append(cnnIns, fast...), append(idxs, fastIdxs...), results)
	}
	st.CNN += time.Since(cnnStart)
	return err
}

// reliableStage runs everything except the non-reliable CNN for one image:
// conv1 executed reliably (into out when out has the output's shape) and —
// when execution succeeds — the shape qualifier on conv1's Sobel channels.
// It fills res.Stats/Bucket/Qualifier and, on a bucket trip,
// res.Decision/ExecErr. It returns conv1's reliably computed feature map,
// which the CNN stage consumes, or nil after an execution failure, because
// the CNN cannot run without it. Qualifier wall time is booked into
// st.Qualifier so the caller can split it out of the stage total.
func (h *HybridNetwork) reliableStage(w *worker, out, img *tensor.Tensor, res *Result, st *StageTimes) (*tensor.Tensor, error) {
	spec := reliable.ConvSpec{Stride: h.conv1.Stride(), Pad: h.conv1.Pad()}
	features, execErr := reliable.Conv2DInto(w.engine, out, img, h.conv1.Weight(), h.conv1.Bias().Data(), spec)
	res.Stats = w.engine.Stats()
	res.Bucket = w.engine.Bucket().Snapshot()
	if execErr != nil {
		if !errors.Is(execErr, reliable.ErrBucketTripped) {
			return nil, execErr
		}
		res.Decision = DecisionExecutionFailed
		res.ExecErr = execErr
		return nil, nil
	}
	// Qualifier path: edge magnitude from the reliably computed Sobel
	// channels of the SAME feature map the CNN consumes.
	qStart := time.Now()
	mag, err := edgeMagnitude(w.edges, features, h.cfg.Pair)
	if err != nil {
		return nil, err
	}
	w.edges = mag
	qres, err := h.qualifier.QualifyEdgeMap(mag)
	st.Qualifier += time.Since(qStart)
	if err != nil {
		return nil, fmt.Errorf("core: qualifier: %w", err)
	}
	res.Qualifier = qres
	return features, nil
}

// cnnStage runs the non-reliable CNN portion over the surviving images of a
// chunk — idxs[j] is the position of cnnIns[j] in results — filling
// class/confidence/probs and the Reliable Result decision. The images pack
// into a single NCHW micro-batch (one GEMM per layer), so a chunk whose
// images differ in shape is an error. The inference forward may rewrite
// cnnIns (layer 1 of the demo net is a ReLU, which clamps in place); the
// qualifier has already read them and no Result refers to them.
func (h *HybridNetwork) cnnStage(ctx *nn.Context, cnnIns []*tensor.Tensor, idxs []int, results []Result) error {
	logits, err := h.net.ForwardSamples(ctx, cnnFrom, h.net.Len(), cnnIns)
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
		h.decide(res)
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
