package nn

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// LRN is AlexNet's local response normalisation across channels:
//
//	y_i = x_i / (k + (α/n)·Σ_{j∈window(i)} x_j²)^β
//
// where the window spans the n channels centred on i (clipped at the ends),
// so n is odd.
//
// The arithmetic is float32 throughout, each step rounded on its own (no
// fused multiply-add on any platform): squares x_j² summed in ascending j,
// d = k + (α/n)·Σ, then y = x · mathx.InvPow(d, β). Against the exact
// (float64, math.Pow) formula the output is within 8 ulp.
type LRN struct {
	name  string
	n     int
	k     float64
	alpha float64
	beta  float64
}

// lrnState is the per-context forward cache of the last training-mode
// ForwardBatch, plus the backward's scratch; the buffers grow to the largest
// batch seen and are reused call over call. An inference forward needs no
// scratch at all: its window sums accumulate in the output it is about to
// overwrite, so it allocates that output and nothing else.
type lrnState struct {
	lastIn *tensor.Tensor
	denom  []float32 // d = k + (α/n)Σx² per element of the batch
	scale  []float32 // d^-β per element of the batch
	planes []float32 // backward, one sample: g·x·d^(-β-1)
}

var _ Layer = (*LRN)(nil)

// NewLRN returns an LRN layer over a window of n channels; n must be odd so
// the window is centred. AlexNet's published constants are n=5, k=2,
// α=1e-4, β=0.75.
func NewLRN(name string, n int, k, alpha, beta float64) (*LRN, error) {
	if n < 1 || n%2 == 0 {
		return nil, fmt.Errorf("nn: lrn %q window %d must be odd and >= 1", name, n)
	}
	if k < 0 || alpha < 0 || beta <= 0 {
		return nil, fmt.Errorf("nn: lrn %q constants (k=%v α=%v β=%v) invalid", name, k, alpha, beta)
	}
	return &LRN{name: name, n: n, k: k, alpha: alpha, beta: beta}, nil
}

// NewAlexNetLRN returns an LRN layer with the AlexNet paper's constants.
func NewAlexNetLRN(name string) *LRN {
	l, err := NewLRN(name, 5, 2, 1e-4, 0.75)
	if err != nil {
		// Unreachable: the constants are valid by construction.
		panic(err)
	}
	return l
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// window returns the clipped channel window [lo, hi] centred on ch.
func (l *LRN) window(ch, c int) (lo, hi int) {
	lo, hi = ch-l.n/2, ch+l.n/2
	if lo < 0 {
		lo = 0
	}
	if hi >= c {
		hi = c - 1
	}
	return lo, hi
}

// sumPlanes writes Σ_{j=lo..hi} src[j·hw : (j+1)·hw] into dst (hw = len(dst)):
// contiguous passes in ascending j, recomputed per window — no running
// subtract, so nothing drifts from one channel to the next.
func sumPlanes(dst, src []float32, lo, hi int) {
	hw := len(dst)
	copy(dst, src[lo*hw:(lo+1)*hw])
	for j := lo + 1; j <= hi; j++ {
		for p, v := range src[j*hw : (j+1)*hw] {
			dst[p] += v
		}
	}
}

// normalize applies the LRN kernel to one CHW sample (c channels of hw
// elements), channel-major: per channel the squares of its window's planes
// sum, in ascending j, into that channel's plane of od, and one pass turns
// each sum into the output there. When denom and scale are non-nil they
// receive the per-element d and d^-β BackwardBatch consumes.
func (l *LRN) normalize(in, od []float32, c, hw int, denom, scale []float32) {
	k, a := float32(l.k), float32(l.alpha/float64(l.n))
	for ch := 0; ch < c; ch++ {
		lo, hi := l.window(ch, c)
		off := ch * hw
		x, y := in[off:off+hw], od[off:off+hw]
		for p, v := range in[lo*hw : (lo+1)*hw] {
			y[p] = float32(v * v)
		}
		for j := lo + 1; j <= hi; j++ {
			for p, v := range in[j*hw : (j+1)*hw] {
				y[p] += float32(v * v)
			}
		}
		for p, ss := range y {
			d := k + float32(a*ss)
			r := mathx.InvPow(d, l.beta)
			y[p] = x[p] * r
			if denom != nil {
				denom[off+p], scale[off+p] = d, r
			}
		}
	}
}

// ForwardBatch implements Layer over an NCHW batch: normalisation windows
// span channels within a sample, so the pass applies the kernel to each of
// the N packed samples. In training contexts the input and the d / d^-β
// caches are kept for BackwardBatch; inference contexts cache nothing and,
// on AVX2 hosts with β = 0.75, run the vector kernel (normalizeSIMD).
func (l *LRN) ForwardBatch(ctx *Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: lrn %q forward needs a context", l.name)
	}
	if x.Rank() != 4 {
		return nil, fmt.Errorf("nn: lrn %q wants NCHW batch, got %v", l.name, x.Shape())
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	chw := c * h * w
	st := ctx.state(l, func() any { return &lrnState{} }).(*lrnState)
	if ctx.Training() {
		st.lastIn = x
		st.denom = tensor.GrowSlice(st.denom, n*chw)
		st.scale = tensor.GrowSlice(st.scale, n*chw)
	} else {
		st.lastIn = nil
	}
	out := tensor.MustNew(n, c, h, w)
	in, od := x.Data(), out.Data()
	simd := st.lastIn == nil && l.simd(h*w)
	for s := 0; s < n; s++ {
		if simd {
			l.normalizeSIMD(in[s*chw:(s+1)*chw], od[s*chw:(s+1)*chw], c, h*w)
			continue
		}
		var denom, scale []float32
		if st.lastIn != nil {
			denom, scale = st.denom[s*chw:(s+1)*chw], st.scale[s*chw:(s+1)*chw]
		}
		l.normalize(in[s*chw:(s+1)*chw], od[s*chw:(s+1)*chw], c, h*w, denom, scale)
	}
	return out, nil
}

// simd reports whether an inference forward over planes of hw elements runs
// the AVX2 kernel: only for β = 0.75, the one exponent whose InvPow is
// square roots, a product and a division.
func (l *LRN) simd(hw int) bool {
	return kernelAsm && l.beta == 0.75 && hw > 0
}

// normalizeSIMD is normalize without the backward caches, one lrnKernel
// call per channel; the same operations in the same order, so the output
// is normalize's bit for bit.
func (l *LRN) normalizeSIMD(in, od []float32, c, hw int) {
	k, a := float32(l.k), float32(l.alpha/float64(l.n))
	for ch := 0; ch < c; ch++ {
		lo, hi := l.window(ch, c)
		off := ch * hw
		lrnKernel(&od[off], &in[off], &in[lo*hw], int64(hi-lo+1), int64(hw), k, a)
	}
}

// BackwardBatch implements Layer with the exact derivative, sample by
// sample (windows never cross samples):
//
//	dx_m = g_m·d_m^{-β} − (2αβ/n)·x_m·Σ_{i: m∈window(i)} g_i·x_i·d_i^{-β-1}
func (l *LRN) BackwardBatch(ctx *Context, grad *tensor.Tensor) (*tensor.Tensor, error) {
	if ctx == nil {
		return nil, fmt.Errorf("nn: lrn %q backward needs a context", l.name)
	}
	st, ok := ctx.states[l].(*lrnState)
	if !ok || st.lastIn == nil {
		return nil, fmt.Errorf("nn: lrn %q backward before training-mode forward", l.name)
	}
	if !grad.SameShape(st.lastIn) {
		return nil, fmt.Errorf("nn: lrn %q gradient shape %v != input %v",
			l.name, grad.Shape(), st.lastIn.Shape())
	}
	n, c, h, w := st.lastIn.Dim(0), st.lastIn.Dim(1), st.lastIn.Dim(2), st.lastIn.Dim(3)
	chw := c * h * w
	st.planes = tensor.GrowSlice(st.planes, chw)
	dx := tensor.MustNew(n, c, h, w)
	in, g, dxd := st.lastIn.Data(), grad.Data(), dx.Data()
	for s := 0; s < n; s++ {
		lo, hi := s*chw, (s+1)*chw
		l.backwardSample(in[lo:hi], g[lo:hi], dxd[lo:hi], st.denom[lo:hi], st.scale[lo:hi],
			st.planes, c, h*w)
	}
	return dx, nil
}

// backwardSample applies the LRN derivative to one CHW sample (c channels of
// hw elements) given its forward caches, in the forward's channel-major
// walk: planes holds g_i·x_i·d_i^{-β-1} for the whole sample (d^{-β-1} is
// d^-β / d), and the channels whose window contains m are the channels of
// m's own window, so their planes sum into m's plane of dxd, which one pass
// then turns into the derivative.
func (l *LRN) backwardSample(in, g, dxd, denom, scale, planes []float32, c, hw int) {
	for i, r := range scale {
		planes[i] = g[i] * in[i] * r / denom[i]
	}
	coef := float32(2 * l.alpha * l.beta / float64(l.n))
	for m := 0; m < c; m++ {
		lo, hi := l.window(m, c)
		off := m * hw
		dst := dxd[off : off+hw]
		sumPlanes(dst, planes, lo, hi)
		for p, sum := range dst {
			dst[p] = g[off+p]*scale[off+p] - coef*in[off+p]*sum
		}
	}
}

// Window returns the channel window size n.
func (l *LRN) Window() int { return l.n }

// Constants returns the (k, α, β) constants.
func (l *LRN) Constants() (k, alpha, beta float64) { return l.k, l.alpha, l.beta }
