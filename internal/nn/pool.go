package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW batches. AlexNet uses overlapping
// 3×3/stride-2 pooling; the micro networks use 2×2/stride-2.
type MaxPool2D struct {
	name   string
	k      int
	stride int
}

// poolState is the per-context forward cache of the last training-mode
// ForwardBatch, plus the inference kernel's scratch.
type poolState struct {
	lastShape  []int
	argmax     []int // linear index into the packed input batch of each output's max
	n, c       int
	outH, outW int
	split      []float32 // one plane's rows split into even and odd columns (poolPlaneSIMD)
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D returns a max-pooling layer with a square window.
func NewMaxPool2D(name string, k, stride int) (*MaxPool2D, error) {
	if k < 1 {
		return nil, fmt.Errorf("nn: pool %q window %d must be >= 1", name, k)
	}
	if stride < 1 {
		return nil, fmt.Errorf("nn: pool %q stride %d must be >= 1", name, stride)
	}
	return &MaxPool2D{name: name, k: k, stride: stride}, nil
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// ForwardBatch implements Layer over an NCHW batch. Pooling is independent
// per (sample, channel) plane, so the pass sweeps all N·C planes of the
// packed batch. In training contexts each output's argmax (an absolute
// index into the packed batch) is cached for BackwardBatch; inference
// contexts cache nothing and, on AVX2 hosts at stride 2, run the vector
// kernels (poolPlaneSIMD).
func (p *MaxPool2D) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: pool %q forward needs a context", p.name)
	}
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: pool %q wants NCHW batch, got %v", p.name, x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < p.k || w < p.k {
		return nil, fmt.Errorf("nn: pool %q window %d does not fit input %dx%d", p.name, p.k, h, w)
	}
	outH := (h-p.k)/p.stride + 1
	outW := (w-p.k)/p.stride + 1
	out := tensor.MustNew(n, c, outH, outW)
	in, od := x.Data(), out.Data()
	st := ctx.state(p, func() any { return &poolState{} }).(*poolState)
	if ctx.Training() {
		if cap(st.argmax) >= n*c*outH*outW {
			st.argmax = st.argmax[:n*c*outH*outW]
		} else {
			st.argmax = make([]int, n*c*outH*outW)
		}
		st.lastShape = x.Shape()
		st.n, st.c, st.outH, st.outW = n, c, outH, outW
	} else {
		st.argmax = nil
	}
	if st.argmax == nil && kernelAsm && p.stride == 2 {
		ew := splitWidth(outW, p.k)
		st.split = tensor.GrowSlice(st.split, 2*h*ew)
		for plane := 0; plane < n*c; plane++ {
			poolPlaneSIMD(in[plane*h*w:(plane+1)*h*w], od[plane*outH*outW:(plane+1)*outH*outW],
				st.split, h, w, outH, outW, p.k, ew)
		}
		return out, nil
	}
	for plane := 0; plane < n*c; plane++ {
		p.poolPlane(in, od, st.argmax, plane*h*w, plane*outH*outW, w, outH, outW)
	}
	return out, nil
}

// splitWidth is the half-row width of poolPlaneSIMD's split scratch for
// outW outputs of a k-wide window: every lane of every 8-output block a tap
// loads, partial last block included, stays inside its half row, and the
// ⌈w/2⌉ columns the split writes fit (w <= 2·outW + k).
func splitWidth(outW, k int) int {
	return (outW+7)&^7 + k
}

// poolPlaneSIMD is poolPlane for stride 2 without argmax, on the AVX2
// kernels: the plane's h rows of w columns are split once into even and
// odd columns in split (2·h·ew elements), then every output takes its taps
// in poolPlane's (ky, kx) order with poolPlane's comparison, so the output
// plane is poolPlane's bit for bit.
func poolPlaneSIMD(in, out, split []float32, h, w, outH, outW, k, ew int) {
	poolSplitRows(&split[0], &in[0], int64(h), int64(w), int64(ew))
	maxPoolRows(&out[0], &split[0], int64(outH), int64(outW), int64(k), int64(ew))
}

// poolPlane sweeps the max window over one (h, w) plane starting at pBase
// of in, writing outputs from oBase of out. argmax, when non-nil, receives
// each output's linear input index (absolute in in) for BackwardBatch.
func (p *MaxPool2D) poolPlane(in, out []float32, argmax []int, pBase, oBase, w, outH, outW int) {
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			best := float32(math.Inf(-1))
			bestIdx := -1
			for ky := 0; ky < p.k; ky++ {
				row := pBase + (oy*p.stride+ky)*w
				for kx := 0; kx < p.k; kx++ {
					ix := ox*p.stride + kx
					if v := in[row+ix]; v > best {
						best = v
						bestIdx = row + ix
					}
				}
			}
			oIdx := oBase + oy*outW + ox
			out[oIdx] = best
			if argmax != nil {
				argmax[oIdx] = bestIdx
			}
		}
	}
}

// BackwardBatch implements Layer: the batch gradient routes to each
// window's cached argmax, which is already absolute in the packed batch.
func (p *MaxPool2D) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: pool %q backward needs a context", p.name)
	}
	st, ok := ctx.states[p].(*poolState)
	if !ok || st.argmax == nil {
		return nil, fmt.Errorf("nn: pool %q backward before training-mode forward", p.name)
	}
	if grad.Rank() != 4 || grad.Dim(0) != st.n || grad.Dim(1) != st.c ||
		grad.Dim(2) != st.outH || grad.Dim(3) != st.outW {
		return nil, fmt.Errorf("nn: pool %q wants (%d,%d,%d,%d) gradient, got %v",
			p.name, st.n, st.c, st.outH, st.outW, grad.Shape())
	}
	dx := tensor.MustNew(st.lastShape...)
	dxd, g := dx.Data(), grad.Data()
	for i, src := range st.argmax {
		dxd[src] += g[i]
	}
	return dx, nil
}

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
}

// reluState is the per-context activation mask of the last training-mode
// ForwardBatch.
type reluState struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// ForwardBatch implements Layer: ReLU is element-wise, so the pass is one
// clamp sweep over the packed batch (non-positive AND NaN clamp to 0). In
// inference contexts the sweep runs in place: x itself is clamped and
// returned, and nothing is cached. In training contexts x is left as it was,
// the result is a fresh tensor and the activation mask is cached for
// BackwardBatch.
func (r *ReLU) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: relu %q forward needs a context", r.name)
	}
	st := ctx.state(r, func() any { return &reluState{} }).(*reluState)
	if !ctx.Training() {
		st.mask = nil
		clampInPlace(x.Data())
		return x, nil
	}
	out := x.Clone()
	d := out.Data()
	if cap(st.mask) >= len(d) {
		st.mask = st.mask[:len(d)]
	} else {
		st.mask = make([]bool, len(d))
	}
	for i, v := range d {
		if v > 0 {
			st.mask[i] = true
		} else {
			st.mask[i] = false
			d[i] = 0
		}
	}
	return out, nil
}

// clampInPlace is the inference ReLU sweep, d[i] = 0 unless d[i] > 0: the
// AVX2 kernel where the host has it, else clampLoop.
func clampInPlace(d []float32) {
	if kernelAsm && len(d) > 0 {
		reluKernel(&d[0], int64(len(d)))
		return
	}
	clampLoop(d)
}

// clampLoop is the Go loop of the inference ReLU (non-positive AND NaN
// clamp to +0).
func clampLoop(d []float32) {
	for i, v := range d {
		if !(v > 0) {
			d[i] = 0
		}
	}
}

// BackwardBatch implements Layer: the batch gradient gates on the cached
// activation mask.
func (r *ReLU) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: relu %q backward needs a context", r.name)
	}
	st, ok := ctx.states[r].(*reluState)
	if !ok || st.mask == nil {
		return nil, fmt.Errorf("nn: relu %q backward before training-mode forward", r.name)
	}
	if grad.Len() != len(st.mask) {
		return nil, fmt.Errorf("nn: relu %q gradient length %d != cached %d",
			r.name, grad.Len(), len(st.mask))
	}
	dx := grad.Clone()
	d := dx.Data()
	for i, on := range st.mask {
		if !on {
			d[i] = 0
		}
	}
	return dx, nil
}

// Flatten reshapes each sample of a batch to a flat vector.
type Flatten struct {
	name string
}

// flattenState is the per-context input-shape cache of the last
// training-mode ForwardBatch.
type flattenState struct {
	dims []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// ForwardBatch implements Layer: an (N, C, H, W) batch reshapes to
// (N, C·H·W), one flat row per sample (a view, no copy). In training
// contexts the input shape is cached so BackwardBatch can reverse it.
func (f *Flatten) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: flatten %q forward needs a context", f.name)
	}
	if x.Rank() < 2 {
		return nil, fmt.Errorf("nn: flatten %q wants a batch of rank >= 2, got %v", f.name, x.Shape())
	}
	st := ctx.state(f, func() any { return &flattenState{} }).(*flattenState)
	if ctx.Training() {
		st.dims = x.Shape()
	} else {
		st.dims = nil
	}
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// BackwardBatch implements Layer: the batch gradient reshapes back to the
// cached batch input shape (a view, no copy).
func (f *Flatten) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: flatten %q backward needs a context", f.name)
	}
	st, ok := ctx.states[f].(*flattenState)
	if !ok || st.dims == nil {
		return nil, fmt.Errorf("nn: flatten %q backward before training-mode forward", f.name)
	}
	return grad.Reshape(st.dims...)
}

// Kernel returns the pooling window side.
func (p *MaxPool2D) Kernel() int { return p.k }

// Stride returns the pooling stride.
func (p *MaxPool2D) Stride() int { return p.stride }
