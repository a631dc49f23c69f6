package reliable

import (
	"fmt"

	"repro/internal/tensor"
)

// ConvSpec describes a 2-D convolution between a CHW input and an FCHW
// filter bank. It is shared by the reliable kernel (Algorithm 3) and the
// native baseline so Table 1 compares identical workloads.
type ConvSpec struct {
	Stride int
	Pad    int
}

// Validate checks the spec against an input/filter pair and returns the
// output spatial dimensions.
func (s ConvSpec) Validate(input, filters *tensor.Tensor) (outH, outW int, err error) {
	if s.Stride < 1 {
		return 0, 0, fmt.Errorf("reliable: stride %d must be >= 1", s.Stride)
	}
	if s.Pad < 0 {
		return 0, 0, fmt.Errorf("reliable: pad %d must be >= 0", s.Pad)
	}
	if input.Rank() != 3 {
		return 0, 0, fmt.Errorf("reliable: input must be CHW, got rank %d", input.Rank())
	}
	if filters.Rank() != 4 {
		return 0, 0, fmt.Errorf("reliable: filters must be FCHW, got rank %d", filters.Rank())
	}
	if input.Dim(0) != filters.Dim(1) {
		return 0, 0, fmt.Errorf("reliable: input channels %d != filter channels %d",
			input.Dim(0), filters.Dim(1))
	}
	h, w := input.Dim(1), input.Dim(2)
	kh, kw := filters.Dim(2), filters.Dim(3)
	if h+2*s.Pad < kh || w+2*s.Pad < kw {
		return 0, 0, fmt.Errorf("reliable: kernel %dx%d does not fit input %dx%d (pad %d)",
			kh, kw, h, w, s.Pad)
	}
	// The kernel fits and the stride is positive, so both extents are >= 1.
	return (h+2*s.Pad-kh)/s.Stride + 1, (w+2*s.Pad-kw)/s.Stride + 1, nil
}

// newOutput is the preamble the reliable kernel and the native baseline
// share: validate the spec, check that a bias has one entry per filter, and
// allocate the (F, outH, outW) output. The loop nests below stay two plain
// loops on purpose — the native row of Table 1 must be code the compiler
// sees through, not the reliable kernel behind a callback.
func (s ConvSpec) newOutput(input, filters *tensor.Tensor, bias []float32) (*tensor.Tensor, error) {
	outH, outW, err := s.Validate(input, filters)
	if err != nil {
		return nil, err
	}
	nf := filters.Dim(0)
	if bias != nil && len(bias) != nf {
		return nil, fmt.Errorf("reliable: bias length %d != filters %d", len(bias), nf)
	}
	return tensor.New(nf, outH, outW)
}

// Conv2D executes the full convolution layer with the reliable kernel of
// Algorithm 3: every multiply and every accumulate goes through the engine's
// retry/bucket protocol. bias may be nil (no bias) or have one entry per
// filter.
//
// On a persistent-error abort the partially computed output is discarded and
// ErrBucketTripped is returned (wrapped, with the failing output coordinate).
func Conv2D(e *Engine, input, filters *tensor.Tensor, bias []float32, spec ConvSpec) (*tensor.Tensor, error) {
	out, err := spec.newOutput(input, filters, bias)
	if err != nil {
		return nil, err
	}
	nf, outH, outW := out.Dim(0), out.Dim(1), out.Dim(2)
	inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2)
	kh, kw := filters.Dim(2), filters.Dim(3)

	in := input.Data()
	fl := filters.Data()
	od := out.Data()
	for f := 0; f < nf; f++ {
		fBase := f * inC * kh * kw
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var acc float32
				if bias != nil {
					acc = bias[f]
				}
				iy0 := oy*spec.Stride - spec.Pad
				ix0 := ox*spec.Stride - spec.Pad
				for c := 0; c < inC; c++ {
					cBase := c * inH * inW
					kBase := fBase + c*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						rowBase := cBase + iy*inW
						kRow := kBase + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							acc, err = e.MAC(acc, in[rowBase+ix], fl[kRow+kx])
							if err != nil {
								return nil, fmt.Errorf("reliable: conv output (%d,%d,%d): %w",
									f, oy, ox, err)
							}
						}
					}
				}
				od[(f*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out, nil
}

// NativeConv2D is the unprotected reference implementation: plain float32
// loops with no overloading, no qualifiers and no error accounting. It is
// the "native execution" row of Table 1 and the oracle fault campaigns
// compare against.
func NativeConv2D(input, filters *tensor.Tensor, bias []float32, spec ConvSpec) (*tensor.Tensor, error) {
	out, err := spec.newOutput(input, filters, bias)
	if err != nil {
		return nil, err
	}
	nf, outH, outW := out.Dim(0), out.Dim(1), out.Dim(2)
	inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2)
	kh, kw := filters.Dim(2), filters.Dim(3)

	in := input.Data()
	fl := filters.Data()
	od := out.Data()
	for f := 0; f < nf; f++ {
		fBase := f * inC * kh * kw
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var acc float32
				if bias != nil {
					acc = bias[f]
				}
				iy0 := oy*spec.Stride - spec.Pad
				ix0 := ox*spec.Stride - spec.Pad
				for c := 0; c < inC; c++ {
					cBase := c * inH * inW
					kBase := fBase + c*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						rowBase := cBase + iy*inW
						kRow := kBase + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < inW {
								acc += in[rowBase+ix] * fl[kRow+kx]
							}
						}
					}
				}
				od[(f*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out, nil
}

// MACCount returns the number of multiply–accumulate pairs a convolution
// performs (ignoring padding clipping, i.e. an upper bound that is exact for
// pad 0), used by the guarantee calculator and the benchmark reports.
func MACCount(input, filters *tensor.Tensor, spec ConvSpec) (uint64, error) {
	outH, outW, err := spec.Validate(input, filters)
	if err != nil {
		return 0, err
	}
	per := uint64(filters.Dim(1)) * uint64(filters.Dim(2)) * uint64(filters.Dim(3))
	return uint64(filters.Dim(0)) * uint64(outH) * uint64(outW) * per, nil
}
