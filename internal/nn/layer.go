// Package nn is the from-scratch CNN framework the reproduction trains and
// executes hybrid networks with. It provides the layers AlexNet needs
// (convolution, ReLU, local response normalisation, max pooling, dense,
// dropout), forward/backward passes and cross-entropy loss. Models are
// stored by internal/onnxlite.
//
// There is one execution path, and it is batch-native: ForwardBatch takes
// an NCHW (or N×K flat) micro-batch and vectorises across it — convolution
// runs all N samples as ONE blocked GEMM per layer whose panels are read
// straight from the input (tensor.ConvGemmAcc), dense layers stream their
// weight matrix once per batch instead of once per sample (tensor.Linear)
// — and, in training contexts, caches the backward state that
// BackwardBatch consumes, so a whole mini-batch trains with one GEMM per
// layer per direction (dW = dY·Xᵀ over the convolution's
// tensor.Im2colBatch lowering, dX = Wᵀ·dY, tensor.Col2imBatch for the
// convolution scatter). A single CHW sample is a batch of one: Sequential.Forward and
// ForwardFrom reshape it to (1, …), run the same layers and return row 0,
// and every kernel is batch-width independent, so a sample's output is
// bit-identical whatever batch it rides in. Layers hold only immutable
// parameters — every per-call cache and scratch buffer lives in the
// Context threaded through the passes, one cache per layer — so one
// network can serve any number of concurrent forward passes, one Context
// per goroutine. Backward passes accumulate into the layers' shared
// gradients, so training a network runs on one goroutine.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one learnable tensor with its gradient accumulator. Gradients are
// accumulated (+=) by BackwardBatch and cleared by ZeroGrad. A nil Grad means
// no gradient has been accumulated yet and reads as all zeros: layers create
// the accumulator in their first BackwardBatch, so a network that only ever
// runs forward (serving, evaluation, export) holds no gradient memory. A
// layer owns its Params for its lifetime — Params returns the same pointers
// on every call — so optimiser state keyed by *Param (SGD velocity) carries
// from step to step.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// ZeroGrad clears the gradient accumulator (a nil one is already zero).
func (p *Param) ZeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// grad returns the gradient accumulator, creating it (zeroed, shaped like
// Value) on the first call — the first BackwardBatch to reach the layer.
func (p *Param) grad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.MustNew(p.Value.Shape()...)
	}
	return p.Grad
}

// Layer is a differentiable module over micro-batches; a single sample is
// the N=1 batch. In training contexts ForwardBatch caches whatever
// BackwardBatch needs in ctx; BackwardBatch consumes the gradient w.r.t.
// the layer's output and returns the gradient w.r.t. its input,
// accumulating parameter gradients into the layer's Param.Grad tensors as a
// side effect.
//
// ForwardBatch is safe for concurrent shared-weight use: all mutable
// per-call state lives in the Context, so goroutines running the same layer
// must simply not share a Context. BackwardBatch writes the shared
// gradients, so backward passes over one network run on one goroutine.
type Layer interface {
	// Name identifies the layer in summaries and serialised models.
	Name() string
	// ForwardBatch computes the layer output for an NCHW (or N×K flat)
	// micro-batch, one output sample per input sample, vectorised across
	// the batch (convolution runs ONE GEMM for all N samples). In
	// inference contexts it caches no backward state; in training
	// contexts (ctx.Training()) it additionally caches the state
	// BackwardBatch consumes. Batch-sized scratch lives in ctx and is
	// reused across calls.
	ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error)
	// BackwardBatch computes the batch input gradient from the batch
	// output gradient, vectorised like ForwardBatch (one GEMM per
	// parameterised layer for all N samples). It must be called on the
	// same Context after a training-mode ForwardBatch, with a gradient
	// matching the batch output shape.
	BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	name   string
	layers []Layer
}

// NewSequential returns a named layer chain.
func NewSequential(name string, layers ...Layer) (*Sequential, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: sequential %q needs at least one layer", name)
	}
	for i, l := range layers {
		if l == nil {
			return nil, fmt.Errorf("nn: sequential %q layer %d is nil", name, i)
		}
	}
	return &Sequential{name: name, layers: layers}, nil
}

// Name returns the network name.
func (s *Sequential) Name() string { return s.name }

// Layers returns the underlying layer slice (shared; callers must not
// mutate it structurally).
func (s *Sequential) Layers() []Layer { return s.layers }

// Layer returns the i-th layer.
func (s *Sequential) Layer(i int) (Layer, error) {
	if i < 0 || i >= len(s.layers) {
		return nil, fmt.Errorf("nn: layer index %d out of range [0,%d)", i, len(s.layers))
	}
	return s.layers[i], nil
}

// Len returns the number of layers.
func (s *Sequential) Len() int { return len(s.layers) }

// Forward runs the full chain over one CHW sample: the N=1 view of
// ForwardBatch.
func (s *Sequential) Forward(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ForwardFrom(ctx, 0, x)
}

// ForwardFrom runs one sample through the chain starting at layer index
// from (inclusive) as a batch of one — so its logits are bit-identical to
// the sample's row in any larger batch. In an inference context the pass
// may rewrite x (see Context).
func (s *Sequential) ForwardFrom(ctx *Context, from int, x *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := s.ForwardSamples(ctx, from, len(s.layers), []*tensor.Tensor{x})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// ForwardSamples runs the samples of xs, which must share one shape, through
// layers [from, to) as one packed batch (one GEMM per layer for all of them;
// a batch of one is a reshape view, no copy, so in an inference context the
// pass may rewrite that sample — see Context) and returns the per-sample
// outputs in input order; no samples give nil. A nil sample or one whose
// shape differs from the first is an error. The outputs are views over a
// single backing array: retaining one retains the batch's output memory
// (Clone a sample to keep it long-term).
func (s *Sequential) ForwardSamples(ctx *Context, from, to int, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	batch, err := tensor.Pack(xs)
	if err != nil {
		return nil, fmt.Errorf("nn: forward samples: %w", err)
	}
	out, err := s.ForwardBatchRange(ctx, from, to, batch)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(xs))
	for i := range outs {
		if outs[i], err = out.Sample(i); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// ForwardBatch runs the full chain over an NCHW micro-batch through ctx:
// one batched pass, one GEMM per convolution/dense layer for all N samples.
func (s *Sequential) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ForwardBatchFrom(ctx, 0, x)
}

// ForwardBatchFrom runs the batched chain starting at layer index from
// (inclusive) — the hybrid network's entry point for continuing a
// micro-batch of classifications from the reliably computed DCNN outputs.
func (s *Sequential) ForwardBatchFrom(ctx *Context, from int, x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.ForwardBatchRange(ctx, from, len(s.layers), x)
}

// ForwardBatchRange runs the batched chain over layers [from, to) — the
// half-open prefix a fast-pipeline image runs non-reliably so it can
// coalesce with reliably computed feature maps at layer to.
func (s *Sequential) ForwardBatchRange(ctx *Context, from, to int, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: forward needs a context")
	}
	if from < 0 || from > len(s.layers) {
		return nil, fmt.Errorf("nn: forward-from index %d out of range [0,%d]", from, len(s.layers))
	}
	if to < from || to > len(s.layers) {
		return nil, fmt.Errorf("nn: forward-to index %d out of range [%d,%d]", to, from, len(s.layers))
	}
	var err error
	for i := from; i < to; i++ {
		x, err = s.layers[i].ForwardBatch(ctx, x)
		if err != nil {
			return nil, fmt.Errorf("nn: forward layer %d (%s): %w", i, s.layers[i].Name(), err)
		}
	}
	return x, nil
}

// BackwardBatch propagates the batch output gradient through the chain in
// reverse, using the caches a training-mode ForwardBatch left in ctx —
// one GEMM per parameterised layer for the whole mini-batch.
func (s *Sequential) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: backward needs a context")
	}
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad, err = s.layers[i].BackwardBatch(ctx, grad)
		if err != nil {
			return nil, fmt.Errorf("nn: backward layer %d (%s): %w", i, s.layers[i].Name(), err)
		}
	}
	return grad, nil
}

// Params returns all learnable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears every parameter gradient.
func (s *Sequential) ZeroGrads() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}
