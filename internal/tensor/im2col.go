package tensor

import "fmt"

// Im2colBatch / Col2imBatch lower 2-D convolution onto GEMM: each k×k
// receptive field of a CHW input becomes one column of a
// (C·k·k) × (outH·outW) matrix, so the convolution with an (F, C, k, k)
// filter bank is a single (F) × (C·k·k) · (C·k·k) × (outH·outW) matrix
// product. The lowering runs across the batch dimension: all N samples of an
// NCHW input land side by side in ONE (C·k·k) × (N·outH·outW) matrix. One
// sample is n = 1 of the same functions.
//
// Only the convolution's backward pass materialises this matrix (dW = dY ·
// colsᵀ needs it, and Col2imBatch scatters dX back out of its layout). The
// forward pass multiplies the same matrix without writing it: ConvGemmAcc
// gathers each GEMM panel straight from the input, and Im2colBatch + a GEMM
// is the oracle it is tested against bit for bit.
//
// All functions are allocation-free over caller-provided slices and carry no
// state, so they are safe for concurrent use with per-caller buffers.

// ConvOut returns the output spatial extent of a convolution of kernel k
// with the given stride and padding over an input extent of in, or 0 if the
// kernel does not fit (in+2·pad < k). The explicit fit check matters:
// Go's truncating division would otherwise map a negative numerator to
// extent 1 and silently convolve past the input's edge.
func ConvOut(in, k, stride, pad int) int {
	if in+2*pad < k {
		return 0
	}
	return (in+2*pad-k)/stride + 1
}

// Im2colBatch expands the NCHW input src (n×c×h×w) into dst as ONE row-major
// (c·k·k) × (n·outH·outW) matrix: row (ch·k+ky)·k+kx holds, for every sample
// s and output position p, the input value sample s's position p sees
// through kernel tap (ch, ky, kx), at column s·outH·outW + p. A convolution
// over the whole batch is then a single
// (F) × (c·k·k) · (c·k·k) × (n·outH·outW) GEMM whose output is F-major
// (F, n, outH·outW) — one contiguous outH·outW run per (filter, sample).
// dst must hold c·k·k·n·outH·outW elements; src n·c·h·w.
func Im2colBatch(dst, src []float32, n, c, h, w, k, stride, pad int) error {
	outH := ConvOut(h, k, stride, pad)
	outW := ConvOut(w, k, stride, pad)
	if outH < 1 || outW < 1 {
		return fmt.Errorf("tensor: im2col kernel %d (stride %d, pad %d) does not fit input %dx%d",
			k, stride, pad, h, w)
	}
	if n < 1 {
		return fmt.Errorf("tensor: im2col batch %d must be >= 1", n)
	}
	hw := outH * outW
	rowLen := n * hw
	if len(dst) < c*k*k*rowLen {
		return fmt.Errorf("tensor: im2col dst length %d < %d for batch %d × (%d,%d,%d) kernel %d stride %d pad %d",
			len(dst), c*k*k*rowLen, n, c, h, w, k, stride, pad)
	}
	if len(src) < n*c*h*w {
		return fmt.Errorf("tensor: im2col src length %d < %d for batch %d × (%d,%d,%d)",
			len(src), n*c*h*w, n, c, h, w)
	}
	for s := 0; s < n; s++ {
		sample := src[s*c*h*w:]
		colOff := s * hw
		for ch := 0; ch < c; ch++ {
			chBase := ch * h * w
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					rowBase := ((ch*k+ky)*k + kx) * rowLen
					row := dst[rowBase+colOff : rowBase+colOff+hw]
					for oy := 0; oy < outH; oy++ {
						iy := oy*stride - pad + ky
						out := row[oy*outW : (oy+1)*outW]
						if iy < 0 || iy >= h {
							for i := range out {
								out[i] = 0
							}
							continue
						}
						in := sample[chBase+iy*w : chBase+(iy+1)*w]
						ix := -pad + kx
						if stride == 1 && ix >= 0 && ix+outW <= w {
							copy(out, in[ix:ix+outW])
							continue
						}
						for ox := 0; ox < outW; ox++ {
							if ix >= 0 && ix < w {
								out[ox] = in[ix]
							} else {
								out[ox] = 0
							}
							ix += stride
						}
					}
				}
			}
		}
	}
	return nil
}

// Col2imBatch scatters a batch-wide (c·k·k) × (n·outH·outW) column-gradient
// matrix — the Im2colBatch layout, one GemmTA output for a whole NCHW
// micro-batch — back onto the NCHW plane dst (n×c×h×w), accumulating
// overlapping contributions. It is the adjoint of Im2colBatch and the
// scatter step of the batched convolution backward pass: sample s's columns
// occupy the contiguous column range [s·outH·outW, (s+1)·outH·outW) of every
// row, and scatter only into sample s's CHW plane of dst. Per-element
// accumulation order within a sample is the same for every batch size.
// dst must hold n·c·h·w elements and is accumulated into, not cleared; zero
// it first for a plain gradient. cols must hold c·k·k·n·outH·outW elements.
func Col2imBatch(dst, cols []float32, n, c, h, w, k, stride, pad int) error {
	outH := ConvOut(h, k, stride, pad)
	outW := ConvOut(w, k, stride, pad)
	if outH < 1 || outW < 1 {
		return fmt.Errorf("tensor: col2im kernel %d (stride %d, pad %d) does not fit input %dx%d",
			k, stride, pad, h, w)
	}
	if n < 1 {
		return fmt.Errorf("tensor: col2im batch %d must be >= 1", n)
	}
	hw := outH * outW
	rowLen := n * hw
	if len(cols) < c*k*k*rowLen {
		return fmt.Errorf("tensor: col2im cols length %d < %d for batch %d × (%d,%d,%d) kernel %d stride %d pad %d",
			len(cols), c*k*k*rowLen, n, c, h, w, k, stride, pad)
	}
	if len(dst) < n*c*h*w {
		return fmt.Errorf("tensor: col2im dst length %d < %d for batch %d × (%d,%d,%d)",
			len(dst), n*c*h*w, n, c, h, w)
	}
	for s := 0; s < n; s++ {
		sample := dst[s*c*h*w:]
		colOff := s * hw
		for ch := 0; ch < c; ch++ {
			chBase := ch * h * w
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					rowBase := ((ch*k+ky)*k + kx) * rowLen
					row := cols[rowBase+colOff : rowBase+colOff+hw]
					for oy := 0; oy < outH; oy++ {
						iy := oy*stride - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						out := sample[chBase+iy*w : chBase+(iy+1)*w]
						in := row[oy*outW : (oy+1)*outW]
						ix := -pad + kx
						for ox := 0; ox < outW; ox++ {
							if ix >= 0 && ix < w {
								out[ix] += in[ox]
							}
							ix += stride
						}
					}
				}
			}
		}
	}
	return nil
}
