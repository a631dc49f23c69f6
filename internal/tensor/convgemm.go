package tensor

import "fmt"

// Convolution as GEMM without the im2col matrix ("implicit GEMM"). The
// product is the one Im2colBatch + Gemm would compute — the (outC) ×
// (c·k·k) filter bank times the (c·k·k) × (n·outH·outW) lowered input —
// but the lowered matrix is never written: the GEMM's B-panel step reads
// each panel's values straight out of the NCHW input by index arithmetic.
// The panels hold exactly the values gemmPackB (SIMD) or gemmAccScalar's
// dense copy (pure Go) would have taken from the materialised matrix, and
// the kernels and their ascending-k accumulation are untouched, so the
// result is bit-identical to the two-step path on every build.
//
// Panel rows are kernel taps (ch, ky, kx); panel columns are output
// positions (sample, oy, ox). Consecutive columns that share a sample and
// an output row read one input row at a fixed stride, so a panel row is
// gathered as a few such runs — one copy each when the stride is 1 and the
// run lies inside the row — rather than column by column; the taps of one
// kernel row read the same input row, so each run finds that row once for
// all of them.

// convGeom is the geometry of one NCHW convolution lowered onto GEMM.
type convGeom struct {
	c, h, w, k, stride, pad int
	outH, outW              int
}

// convRun is a stretch of consecutive GEMM columns that share a sample and
// an output row: len columns starting at offset off of the panel being
// filled, whose receptive fields start at input row iy, column ix (before
// the tap offsets; either may be negative in the padding) of the sample
// whose CHW plane begins at base.
type convRun struct {
	off, len, base, iy, ix int
}

// convTaps is a group of consecutive panel rows that read one input row:
// the n kernel taps (ch, ky, kx0), (ch, ky, kx0+1), … of GEMM rows
// [l, l+n) of the panel, with ch already turned into its channel plane's
// offset.
type convTaps struct {
	l, n, chOff, ky, kx0 int
}

// runs appends to dst the runs covering GEMM columns [j0, j0+cols), with
// offsets relative to j0.
func (g *convGeom) runs(dst []convRun, j0, cols int) []convRun {
	hw := g.outH * g.outW
	for off := 0; off < cols; {
		j := j0 + off
		s, p := j/hw, j%hw
		oy, ox := p/g.outW, p%g.outW
		l := min(g.outW-ox, cols-off)
		dst = append(dst, convRun{
			off: off, len: l, base: s * g.c * g.h * g.w,
			iy: oy*g.stride - g.pad, ix: ox*g.stride - g.pad,
		})
		off += l
	}
	return dst
}

// taps appends to dst the tap groups of GEMM rows [l0, l0+kc), with rows
// relative to l0: one group per (ch, ky), cut where the block starts or
// ends inside one.
func (g *convGeom) taps(dst []convTaps, l0, kc int) []convTaps {
	k := g.k
	for l := l0; l < l0+kc; {
		ch, r := l/(k*k), l%(k*k)
		kx := r % k
		n := min(k-kx, l0+kc-l)
		dst = append(dst, convTaps{l: l - l0, n: n, chOff: ch * g.h * g.w, ky: r / k, kx0: kx})
		l += n
	}
	return dst
}

// gather writes the panel rows of the tap groups taps for every column of
// runs: row t.l+i of dst (row stride ld, columns at run offsets) gets, per
// column, the input pixel its receptive field sees through tap
// (ch, ky, kx0+i), or 0 where that pixel lies in the padding.
func (g *convGeom) gather(dst []float32, ld int, x []float32, runs []convRun, taps []convTaps) {
	h, w, stride := g.h, g.w, g.stride
	for ti := range taps {
		t := &taps[ti]
		for ri := range runs {
			r := &runs[ri]
			o := t.l*ld + r.off
			iy := r.iy + t.ky
			if iy < 0 || iy >= h {
				for i := 0; i < t.n; i++ {
					clear(dst[o+i*ld : o+i*ld+r.len])
				}
				continue
			}
			row := x[r.base+t.chOff+iy*w : r.base+t.chOff+(iy+1)*w]
			ix := r.ix + t.kx0
			if stride == 1 && ix >= 0 && ix+t.n-1+r.len <= w {
				// Every tap of the group reads inside the row.
				for i := 0; i < t.n; i++ {
					copy(dst[o+i*ld:o+i*ld+r.len], row[ix+i:])
				}
				continue
			}
			for i := 0; i < t.n; i++ {
				out := dst[o+i*ld : o+i*ld+r.len]
				// Columns [lo, hi) read inside the row; the rest are padding.
				ix := ix + i
				lo, hi := 0, r.len
				if stride == 1 {
					lo, hi = min(max(0, -ix), r.len), max(0, min(r.len, w-ix))
					if lo < hi {
						copy(out[lo:hi], row[ix+lo:ix+hi])
					}
				} else {
					if ix < 0 {
						lo = min((-ix+stride-1)/stride, r.len)
					}
					if last := ix + (r.len-1)*stride; last >= w {
						hi = max(0, r.len-(last-w)/stride-1)
					}
					for j, p := lo, ix+lo*stride; j < hi; j, p = j+1, p+stride {
						out[j] = row[p]
					}
				}
				if lo > 0 {
					clear(out[:lo])
				}
				if hi < r.len {
					clear(out[max(lo, hi):])
				}
			}
		}
	}
}

// ConvGemmAcc accumulates the convolution of the NCHW input x (n×c×h×w)
// with the filter bank wts (outC×c×k×k) into dst, the F-major (outC) ×
// (n·outH·outW) GEMM output that Im2colBatch + a GEMM would produce:
// dst[f][s·outH·outW + p] += Σ_tap wts[f][tap] · x at tap of position p of
// sample s. Bit-identical to that two-step path, it never materialises the
// im2col matrix; its packing scratch is pooled, so it does not allocate in
// steady state. Safe for concurrent use with per-caller dst.
func ConvGemmAcc(dst, wts, x []float32, n, c, h, w, k, stride, pad, outC int) error {
	if k < 1 || stride < 1 || pad < 0 {
		return fmt.Errorf("tensor: conv gemm kernel %d, stride %d, pad %d out of range", k, stride, pad)
	}
	outH := ConvOut(h, k, stride, pad)
	outW := ConvOut(w, k, stride, pad)
	if outH < 1 || outW < 1 {
		return fmt.Errorf("tensor: conv gemm kernel %d (stride %d, pad %d) does not fit input %dx%d",
			k, stride, pad, h, w)
	}
	if n < 1 || c < 1 || outC < 1 {
		return fmt.Errorf("tensor: conv gemm batch %d, channels %d, filters %d must be >= 1", n, c, outC)
	}
	ckk, cols := c*k*k, n*outH*outW
	if len(dst) < outC*cols || len(wts) < outC*ckk || len(x) < n*c*h*w {
		return fmt.Errorf("tensor: conv gemm operand lengths dst=%d w=%d x=%d too short for batch %d × (%d,%d,%d), %d filters of %dx%d: need %d, %d, %d",
			len(dst), len(wts), len(x), n, c, h, w, outC, k, k, outC*cols, outC*ckk, n*c*h*w)
	}
	g := &convGeom{c: c, h: h, w: w, k: k, stride: stride, pad: pad, outH: outH, outW: outW}
	if gemmAsmActive {
		gemmAsmRows(dst, wts, x, outC, ckk, cols, false, false, g)
	} else {
		gemmAccScalar(dst, wts, x, outC, ckk, cols, g)
	}
	return nil
}
