package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer over CHW inputs with an FCHW weight bank
// and per-filter bias, the workhorse of AlexNet. The forward pass is one
// blocked GEMM whose panels are read straight from the NCHW input
// (tensor.ConvGemmAcc), so no im2col matrix is written; the backward pass
// lowers the cached input with tensor.Im2colBatch for its dW GEMM and
// scatters dX back with tensor.Col2imBatch. The direct loop nest is not
// kept here: the reference the GEMM path is equivalence-tested against is
// reliable.NativeConv2D, the same textbook transcription the fault
// campaigns and Table 1 use as their oracle.
//
// The struct holds only parameters and hyper-parameters; activation caches
// and GEMM scratch live in the Context, so one Conv2D may serve any
// number of concurrent forward passes. It owns its two Params for its
// lifetime, so optimiser state keyed by *Param persists across steps.
type Conv2D struct {
	name      string
	inC, outC int
	k         int // square kernel side
	stride    int
	pad       int
	weight    Param // (outC, inC, k, k)
	bias      Param // (outC)
}

// convState is the per-context mutable state of one Conv2D: the reusable
// GEMM output and, in training contexts, the forward cache BackwardBatch
// consumes (the input batch) plus the backward pass's scratch. The buffers
// grow to the high-water mark of the batches seen through this context and
// are then recycled call over call; an inference context never lowers its
// input, so its cols stays nil.
type convState struct {
	out []float32 // GEMM output, F-major (outC, N, outH·outW)

	lastIn     *tensor.Tensor // forward cache (training contexts only)
	outH, outW int
	grad       []float32 // NCHW→F-major gradient transpose scratch
	cols       []float32 // im2col matrix for dW, then the column-space gradient
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D returns a He-initialised convolution layer. rng seeds the
// weights; it must not be nil.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *rand.Rand) (*Conv2D, error) {
	switch {
	case inC < 1 || outC < 1:
		return nil, fmt.Errorf("nn: conv %q channels (%d→%d) must be >= 1", name, inC, outC)
	case k < 1:
		return nil, fmt.Errorf("nn: conv %q kernel %d must be >= 1", name, k)
	case stride < 1:
		return nil, fmt.Errorf("nn: conv %q stride %d must be >= 1", name, stride)
	case pad < 0:
		return nil, fmt.Errorf("nn: conv %q pad %d must be >= 0", name, pad)
	case rng == nil:
		return nil, fmt.Errorf("nn: conv %q needs an rng", name)
	}
	w, err := tensor.New(outC, inC, k, k)
	if err != nil {
		return nil, err
	}
	w.FillHe(rng, inC*k*k)
	b, err := tensor.New(outC)
	if err != nil {
		return nil, err
	}
	return &Conv2D{
		name: name, inC: inC, outC: outC, k: k, stride: stride, pad: pad,
		weight: Param{Name: name + ".weight", Value: w},
		bias:   Param{Name: name + ".bias", Value: b},
	}, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Weight returns the FCHW weight bank (shared storage — the hybrid network's
// filter-replacement workflow edits it in place).
func (c *Conv2D) Weight() *tensor.Tensor { return c.weight.Value }

// Bias returns the bias vector (shared storage).
func (c *Conv2D) Bias() *tensor.Tensor { return c.bias.Value }

// Filters returns the number of output filters.
func (c *Conv2D) Filters() int { return c.outC }

// Kernel returns the kernel side length.
func (c *Conv2D) Kernel() int { return c.k }

// InChannels returns the input channel count.
func (c *Conv2D) InChannels() int { return c.inC }

// Stride returns the stride.
func (c *Conv2D) Stride() int { return c.stride }

// Pad returns the padding.
func (c *Conv2D) Pad() int { return c.pad }

// Params implements Layer: the weight and bias Params, the same two
// pointers on every call.
func (c *Conv2D) Params() []*Param { return []*Param{&c.weight, &c.bias} }

// ForwardBatch implements Layer for an NCHW micro-batch: ONE blocked GEMM
// (bias-seeded, ascending-tap accumulation) of the (outC) × (inC·k·k)
// weight view against the batch's receptive fields, packed straight from x
// (tensor.ConvGemmAcc), covers all N samples — the weight bank is streamed
// once per batch instead of once per sample. The GEMM output is F-major
// (outC, N, outH·outW); a contiguous per-(filter,sample) copy transposes it
// into the NCHW output. In training contexts the input is kept for
// BackwardBatch; inference contexts cache no backward state.
func (c *Conv2D) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: conv %q forward needs a context", c.name)
	}
	if x.Rank() != 4 || x.Dim(1) != c.inC {
		return nil, fmt.Errorf("nn: conv %q wants (N,%d,H,W) batch, got %v", c.name, c.inC, x.Shape())
	}
	n, inH, inW := x.Dim(0), x.Dim(2), x.Dim(3)
	outH := tensor.ConvOut(inH, c.k, c.stride, c.pad)
	outW := tensor.ConvOut(inW, c.k, c.stride, c.pad)
	if outH < 1 || outW < 1 {
		return nil, fmt.Errorf("nn: conv %q kernel %d does not fit input %dx%d", c.name, c.k, inH, inW)
	}
	st := ctx.state(c, func() any { return &convState{} }).(*convState)
	hw := outH * outW
	cols := n * hw

	st.out = tensor.GrowSlice(st.out, c.outC*cols)
	b := c.bias.Value.Data()
	for f := 0; f < c.outC; f++ {
		row := st.out[f*cols : (f+1)*cols]
		bv := b[f]
		for j := range row {
			row[j] = bv
		}
	}
	if err := tensor.ConvGemmAcc(st.out, c.weight.Value.Data(), x.Data(),
		n, c.inC, inH, inW, c.k, c.stride, c.pad, c.outC); err != nil {
		return nil, fmt.Errorf("nn: conv %q: %w", c.name, err)
	}
	if ctx.Training() {
		st.lastIn, st.outH, st.outW = x, outH, outW
	} else {
		st.lastIn = nil
	}

	out := tensor.MustNew(n, c.outC, outH, outW)
	od := out.Data()
	for f := 0; f < c.outC; f++ {
		fRow := st.out[f*cols : (f+1)*cols]
		for s := 0; s < n; s++ {
			copy(od[(s*c.outC+f)*hw:(s*c.outC+f+1)*hw], fRow[s*hw:(s+1)*hw])
		}
	}
	return out, nil
}

// BackwardBatch implements Layer over an NCHW gradient batch in column
// space: the gradient transposes into the F-major (outC) × (N·outH·outW)
// layout of the forward GEMM, dB is one tensor.AddRowSums reduction (one
// chain per (filter,sample), folded in sample order), dW += dY·colsᵀ is ONE
// GemmTB against the im2col lowering of the cached input (the only step
// that needs the matrix), and dX = Col2imBatch(Wᵀ·dY) is ONE GemmTA, into
// the same buffer, plus one batch scatter — the weight bank is streamed
// twice per mini-batch instead of twice per sample.
func (c *Conv2D) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: conv %q backward needs a context", c.name)
	}
	st, ok := ctx.states[c].(*convState)
	if !ok || st.lastIn == nil {
		return nil, fmt.Errorf("nn: conv %q backward before training-mode forward", c.name)
	}
	x := st.lastIn
	n := x.Dim(0)
	if grad.Rank() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.outC ||
		grad.Dim(2) != st.outH || grad.Dim(3) != st.outW {
		return nil, fmt.Errorf("nn: conv %q wants (%d,%d,%d,%d) gradient, got %v",
			c.name, n, c.outC, st.outH, st.outW, grad.Shape())
	}
	inH, inW := x.Dim(2), x.Dim(3)
	hw := st.outH * st.outW
	cols := n * hw
	ckk := c.inC * c.k * c.k
	g := grad.Data()
	dw, db := c.weight.grad().Data(), c.bias.grad().Data()

	// NCHW → F-major: one contiguous copy per (filter, sample), the exact
	// inverse of the forward's output transpose.
	st.grad = tensor.GrowSlice(st.grad, c.outC*cols)
	for f := 0; f < c.outC; f++ {
		fRow := st.grad[f*cols : (f+1)*cols]
		for s := 0; s < n; s++ {
			copy(fRow[s*hw:(s+1)*hw], g[(s*c.outC+f)*hw:(s*c.outC+f+1)*hw])
		}
	}
	if err := tensor.AddRowSums(db, st.grad, c.outC, n, hw); err != nil {
		return nil, fmt.Errorf("nn: conv %q: %w", c.name, err)
	}
	st.cols = tensor.GrowSlice(st.cols, ckk*cols)
	if err := tensor.Im2colBatch(st.cols, x.Data(), n, c.inC, inH, inW, c.k, c.stride, c.pad); err != nil {
		return nil, fmt.Errorf("nn: conv %q: %w", c.name, err)
	}
	tensor.GemmTB(dw, st.grad, st.cols, c.outC, cols, ckk)

	clear(st.cols)
	tensor.GemmTA(st.cols, c.weight.Value.Data(), st.grad, ckk, c.outC, cols)
	dx := tensor.MustNew(n, c.inC, inH, inW)
	if err := tensor.Col2imBatch(dx.Data(), st.cols, n, c.inC, inH, inW, c.k, c.stride, c.pad); err != nil {
		return nil, fmt.Errorf("nn: conv %q: %w", c.name, err)
	}
	return dx, nil
}
