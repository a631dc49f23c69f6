package reliable

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// This file extends reliable execution beyond the single convolution of the
// paper's implementation to the other layer types of a CNN prefix — the
// direction Section V flags as future work: "it is worthwhile investigating
// under what conditions subsequent layers of the CNN can be harnessed".
//
// MACs (convolution, dense) run through the overloaded multiply/accumulate
// protocol. Comparison-based layers (ReLU, max pooling) are protected by
// redundant comparison: the comparison is evaluated twice through the
// engine's Add operator (a − b computed redundantly), so a transient fault
// in the comparison datapath is detected exactly like an arithmetic fault.

// Dense executes a fully connected layer y = Wx + b reliably. weight is
// (out, in), bias may be nil or length out, x is flat.
func Dense(e *Engine, x, weight *tensor.Tensor, bias []float32) (*tensor.Tensor, error) {
	if e == nil {
		return nil, fmt.Errorf("reliable: dense needs an engine")
	}
	if weight.Rank() != 2 {
		return nil, fmt.Errorf("reliable: dense weight must be rank 2, got %v", weight.Shape())
	}
	out, in := weight.Dim(0), weight.Dim(1)
	if x.Rank() != 1 || x.Dim(0) != in {
		return nil, fmt.Errorf("reliable: dense wants (%d) input, got %v", in, x.Shape())
	}
	if bias != nil && len(bias) != out {
		return nil, fmt.Errorf("reliable: dense bias length %d != %d", len(bias), out)
	}
	y, err := tensor.New(out)
	if err != nil {
		return nil, err
	}
	xd, wd, yd := x.Data(), weight.Data(), y.Data()
	for o := 0; o < out; o++ {
		var acc float32
		if bias != nil {
			acc = bias[o]
		}
		row := o * in
		for i := 0; i < in; i++ {
			acc, err = e.MAC(acc, xd[i], wd[row+i])
			if err != nil {
				return nil, fmt.Errorf("reliable: dense output %d: %w", o, err)
			}
		}
		yd[o] = acc
	}
	return y, nil
}

// Greater reliably evaluates a > b: the difference a − b is computed through
// the engine's overloaded subtraction (Add with a negated operand), so the
// comparison inherits the redundancy mode's detection and the retry/bucket
// protocol.
func Greater(e *Engine, a, b float32) (bool, error) {
	d, err := e.Add(a, -b)
	if err != nil {
		return false, err
	}
	return d > 0, nil
}

// ReLU executes the rectifier reliably: each element's sign test goes
// through the redundant comparison.
func ReLU(e *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	if e == nil {
		return nil, fmt.Errorf("reliable: relu needs an engine")
	}
	out := x.Clone()
	d := out.Data()
	for i, v := range d {
		pos, err := Greater(e, v, 0)
		if err != nil {
			return nil, fmt.Errorf("reliable: relu element %d: %w", i, err)
		}
		if !pos {
			d[i] = 0
		}
	}
	return out, nil
}

// MaxPool2D executes max pooling reliably on a CHW input: every window
// comparison is a redundant comparison.
func MaxPool2D(e *Engine, x *tensor.Tensor, k, stride int) (*tensor.Tensor, error) {
	if e == nil {
		return nil, fmt.Errorf("reliable: maxpool needs an engine")
	}
	if x.Rank() != 3 {
		return nil, fmt.Errorf("reliable: maxpool wants CHW input, got %v", x.Shape())
	}
	if k < 1 || stride < 1 {
		return nil, fmt.Errorf("reliable: maxpool window %d / stride %d must be >= 1", k, stride)
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	if h < k || w < k {
		return nil, fmt.Errorf("reliable: maxpool window %d does not fit %dx%d", k, h, w)
	}
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	out, err := tensor.New(c, outH, outW)
	if err != nil {
		return nil, err
	}
	in, od := x.Data(), out.Data()
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < k; ky++ {
					row := base + (oy*stride+ky)*w
					for kx := 0; kx < k; kx++ {
						v := in[row+ox*stride+kx]
						gt, err := Greater(e, v, best)
						if err != nil {
							return nil, fmt.Errorf("reliable: maxpool (%d,%d,%d): %w", ch, oy, ox, err)
						}
						if gt {
							best = v
						}
					}
				}
				od[(ch*outH+oy)*outW+ox] = best
			}
		}
	}
	return out, nil
}

// LRN executes AlexNet's local response normalisation reliably over an odd
// window of n channels. The squares, the window sums and the final scaling
// run through the overloaded operators; d = k + (α/n)·Σ and the power
// mathx.InvPow(d, β) are a bounded elementary function of one protected
// value (on the FPGA target a lookup table, which the paper's methodology
// treats as a verified deterministic block). Operation for operation this is
// nn.LRN's float32 arithmetic, so on fault-free ALUs the two agree bit for
// bit.
func LRN(e *Engine, x *tensor.Tensor, n int, k, alpha, beta float64) (*tensor.Tensor, error) {
	if e == nil {
		return nil, fmt.Errorf("reliable: lrn needs an engine")
	}
	if x.Rank() != 3 {
		return nil, fmt.Errorf("reliable: lrn wants CHW input, got %v", x.Shape())
	}
	if n < 1 || n%2 == 0 || beta <= 0 {
		return nil, fmt.Errorf("reliable: lrn window %d (odd, >= 1) / beta %v invalid", n, beta)
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	out, err := tensor.New(c, h, w)
	if err != nil {
		return nil, err
	}
	in, od := x.Data(), out.Data()
	half := n / 2
	hw := h * w
	kf, a := float32(k), float32(alpha/float64(n))
	// Reliably squared activations.
	sq := make([]float32, len(in))
	for i, v := range in {
		s, err := e.Mul(v, v)
		if err != nil {
			return nil, fmt.Errorf("reliable: lrn square %d: %w", i, err)
		}
		sq[i] = s
	}
	for pos := 0; pos < hw; pos++ {
		for ch := 0; ch < c; ch++ {
			lo, hi := ch-half, ch+half
			if lo < 0 {
				lo = 0
			}
			if hi >= c {
				hi = c - 1
			}
			var ss float32
			for j := lo; j <= hi; j++ {
				ss, err = e.Add(ss, sq[j*hw+pos])
				if err != nil {
					return nil, fmt.Errorf("reliable: lrn sum (%d,%d): %w", ch, pos, err)
				}
			}
			idx := ch*hw + pos
			d := kf + float32(a*ss)
			v, err := e.Mul(in[idx], mathx.InvPow(d, beta))
			if err != nil {
				return nil, fmt.Errorf("reliable: lrn scale (%d,%d): %w", ch, pos, err)
			}
			od[idx] = v
		}
	}
	return out, nil
}
