package tensor

import (
	"fmt"
	"sync"
)

// GEMM kernels over row-major float32 slices. These are the compute
// substrate of the convolution layers (internal/nn) and are written for the
// shapes they produce: from per-sample matrices a few hundred elements per
// side up to batch-wide matrices whose n dimension spans a whole NCHW
// micro-batch of output positions. The forward convolution runs the same
// kernels through ConvGemmAcc (convgemm.go), which packs its B panels
// straight from the NCHW input; the backward pass multiplies the explicit
// Im2colBatch lowering (GemmTB) and scatters GemmTA's output with
// Col2imBatch.
//
// Two kernel generations coexist, selected once at init:
//
//   - SIMD path (amd64 with AVX2+FMA, default build): a register-tiled
//     6×16 microkernel in Go assembly (gemm_amd64.s) over packed A and B
//     panels (gemm_packed.go). Every C element is one ascending-k FMA
//     chain, identical for interior and edge tiles and independent of the
//     matrix width, so per-sample and batched forwards remain bit-identical
//     to EACH OTHER; against the pure-Go path results differ only by the
//     FMA's fused rounding (golden-equivalence-tested to 1e-4).
//   - Pure-Go path (other architectures, CPUs without AVX2/FMA, or the
//     `noasm` build tag): the blocked axpy kernels below, bit-identical to
//     the pre-SIMD implementation. Blocking over (j, l) carves B into
//     (gemmBlockK × gemmBlockN) panels, packed once into a dense scratch
//     buffer and reused across every row of A; packing never reorders the
//     per-element accumulation (l ascends for every output element).
//
// GemmKernel reports which path is active; CPUFeatures what was detected.
//
// Every call runs on the calling goroutine: a batch's parallelism is the
// inference pool's workers, each issuing its own GEMMs. The kernels carry
// no caller-visible state, so they are safe for concurrent use; callers own
// the slices. Packing scratch recycles through sync.Pools rather than
// allocating per call.

const (
	// gemmBlockM is the number of output rows processed per B panel in the
	// pure-Go transposed kernel (GemmTA), which keeps an i-blocked sweep so
	// the C tile stays cache-resident.
	gemmBlockM = 64
	// gemmBlockK is the depth of the packed B panel.
	gemmBlockK = 128
	// gemmBlockN is the width of the packed B panel. 128×1024 float32 =
	// 512 KiB, sized to survive in L2 across the full sweep of A rows.
	gemmBlockN = 1024
)

// gemmAsmActive selects the SIMD path; set during init by gemm_amd64.go
// when the CPU supports AVX2+FMA (never set in noasm or non-amd64 builds).
var gemmAsmActive bool

// gemmKernelName and cpuFeatures back GemmKernel and CPUFeatures.
var (
	gemmKernelName = "generic"
	cpuFeatures    = ""
)

// GemmKernel reports the active inner-kernel implementation: "avx2-fma"
// (register-tiled SIMD microkernel) or "generic" (pure-Go blocked kernel,
// also the `noasm` build-tag fallback).
func GemmKernel() string { return gemmKernelName }

// SIMDActive reports whether this build and CPU run the AVX2 kernels
// (GemmKernel reads "avx2-fma"). It is the one CPU-feature check: assembly
// kernels outside this package (the reliable row pass) gate on it too.
func SIMDActive() bool { return gemmAsmActive }

// CPUFeatures reports the SIMD features detected at init (e.g.
// "avx,avx2,fma,avx512f"), or "" when detection is unavailable for the
// architecture.
func CPUFeatures() string { return cpuFeatures }

// gemmPackBuf holds one GEMM call's packing scratch: the SIMD path's packed
// A block (a) and B panel (b), the pure-Go kernels' dense B panel (b), and,
// for a convolution (ConvGemmAcc), the runs and taps that address its
// panels in the input image. Recycled through gemmPackBufs so concurrent
// calls (one per pool worker) never share a buffer. Each call grows the
// buffers to what its shape needs, not to the block maxima, so a pool miss
// (sync.Pool drops items across garbage collections) costs a small GEMM a
// few kilobytes instead of 600 kB.
type gemmPackBuf struct {
	a, b []float32
	runs []convRun
	taps []convTaps
}

var gemmPackBufs = sync.Pool{
	New: func() any { return new(gemmPackBuf) },
}

// gemmPanel takes a packing buffer from the pool with its b grown to a
// dense panel for a GEMM with inner dimension k and n output columns. Put
// it back when done.
func gemmPanel(k, n int) (*gemmPackBuf, []float32) {
	buf := gemmPackBufs.Get().(*gemmPackBuf)
	buf.b = GrowSlice(buf.b, min(gemmBlockK, k)*min(gemmBlockN, n))
	return buf, buf.b
}

// Gemm computes dst = a·b for row-major a (m×k), b (k×n), dst (m×n),
// overwriting dst. Slices must have at least m*k, k*n and m*n elements;
// the function panics otherwise (programming error, not runtime input).
func Gemm(dst, a, b []float32, m, k, n int) {
	checkGemm(len(dst), len(a), len(b), m, k, n)
	for i := range dst[:m*n] {
		dst[i] = 0
	}
	gemmAcc(dst, a, b, m, k, n)
}

func gemmAcc(dst, a, b []float32, m, k, n int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if gemmAsmActive {
		gemmAsmRows(dst, a, b, m, k, n, false, false, nil)
	} else {
		gemmAccScalar(dst, a, b, m, k, n, nil)
	}
}

// gemmAccScalar is the pure-Go blocked kernel, preserved bit-identically
// from the pre-SIMD implementation: B panels are packed densely once per
// (j, l) block and reused across every A row (axpy-style i–l–j sweeps the
// compiler turns into bounds-check-free streaming code).
// Packing is what makes batch-wide GEMMs fast: B's row stride can span
// megabytes, and walking 128 such rows per output row would thrash the
// TLB; the dense panel costs one copy per (j, l) block and turns the hot
// loop into sequential 512 KiB-resident streams. When conv is non-nil, b is
// the convolution's NCHW input and each panel row is gathered from it
// (ConvGemmAcc) instead of copied from a lowered matrix.
func gemmAccScalar(dst, a, b []float32, m, k, n int, conv *convGeom) {
	buf, panel := gemmPanel(k, n)
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		jMax := min(j0+gemmBlockN, n)
		jw := jMax - j0
		if conv != nil {
			buf.runs = conv.runs(buf.runs[:0], j0, jw)
		}
		for l0 := 0; l0 < k; l0 += gemmBlockK {
			lMax := min(l0+gemmBlockK, k)
			if conv != nil {
				buf.taps = conv.taps(buf.taps[:0], l0, lMax-l0)
				conv.gather(panel, jw, b, buf.runs, buf.taps)
			} else {
				for l := l0; l < lMax; l++ {
					copy(panel[(l-l0)*jw:(l-l0)*jw+jw], b[l*n+j0:l*n+jMax])
				}
			}
			for i := 0; i < m; i++ {
				cr := dst[i*n+j0 : i*n+jMax]
				ar := a[i*k+l0 : i*k+lMax]
				for li, av := range ar {
					if av == 0 {
						continue
					}
					br := panel[li*jw : li*jw+jw]
					for j, bv := range br {
						cr[j] += av * bv
					}
				}
			}
		}
	}
	gemmPackBufs.Put(buf)
}

// GemmTA computes dst += aᵀ·b for row-major a (k×m), b (k×n), dst (m×n).
// This is the dX step of the convolution backward pass
// (columns gradient = Wᵀ · dY).
func GemmTA(dst, a, b []float32, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || len(a) < k*m || len(b) < k*n || len(dst) < m*n {
		panic(fmt.Sprintf("tensor: gemmTA operand lengths (%d,%d,%d) too short for m=%d k=%d n=%d",
			len(dst), len(a), len(b), m, k, n))
	}
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if gemmAsmActive {
		gemmAsmRows(dst, a, b, m, k, n, true, false, nil)
	} else {
		gemmTAScalar(dst, a, b, m, k, n)
	}
}

// gemmTAScalar now gets the same panel treatment as Gemm: B is carved into
// (gemmBlockK × gemmBlockN) panels packed densely once and swept by
// i-blocks of A columns, instead of re-reading full-width B rows per
// i-block (which, for batch-wide n, re-streamed megabytes of B through L1
// per 64 output rows). Per-element accumulation order is unchanged
// (l ascends for every (i, j)), so results are bit-identical to the
// pre-packing kernel.
func gemmTAScalar(dst, a, b []float32, m, k, n int) {
	buf, panel := gemmPanel(k, n)
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		jMax := min(j0+gemmBlockN, n)
		jw := jMax - j0
		for l0 := 0; l0 < k; l0 += gemmBlockK {
			lMax := min(l0+gemmBlockK, k)
			for l := l0; l < lMax; l++ {
				copy(panel[(l-l0)*jw:(l-l0)*jw+jw], b[l*n+j0:l*n+jMax])
			}
			for ib := 0; ib < m; ib += gemmBlockM {
				iMax := min(ib+gemmBlockM, m)
				for l := l0; l < lMax; l++ {
					ar := a[l*m+ib : l*m+iMax]
					br := panel[(l-l0)*jw : (l-l0)*jw+jw]
					for ii, av := range ar {
						if av == 0 {
							continue
						}
						cr := dst[(ib+ii)*n+j0 : (ib+ii)*n+jMax]
						for j, bv := range br {
							cr[j] += av * bv
						}
					}
				}
			}
		}
	}
	gemmPackBufs.Put(buf)
}

// GemmTB computes dst += a·bᵀ for row-major a (m×k), b (n×k), dst (m×n).
// This is the dW accumulation of the convolution backward pass
// (dW += dY · colsᵀ).
func GemmTB(dst, a, b []float32, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || len(a) < m*k || len(b) < n*k || len(dst) < m*n {
		panic(fmt.Sprintf("tensor: gemmTB operand lengths (%d,%d,%d) too short for m=%d k=%d n=%d",
			len(dst), len(a), len(b), m, k, n))
	}
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if gemmAsmActive {
		gemmAsmRows(dst, a, b, m, k, n, false, true, nil)
	} else {
		gemmTBScalar(dst, a, b, m, k, n)
	}
}

// gemmTBScalar packs bᵀ panels densely (transposing during the pack) and
// then runs the same axpy sweep as Gemm, instead of the old row-dot-product
// loop that re-read all n B rows once per A row — n×k cold streams per
// output row for the big backward dW shapes. The accumulation for each
// element now folds into dst per l step (ascending), which differs from
// the old separate-accumulator dot product by at most rounding; the
// backward-pass consumers are all tolerance-tested.
func gemmTBScalar(dst, a, b []float32, m, k, n int) {
	buf, panel := gemmPanel(k, n)
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		jMax := min(j0+gemmBlockN, n)
		jw := jMax - j0
		for l0 := 0; l0 < k; l0 += gemmBlockK {
			lMax := min(l0+gemmBlockK, k)
			for jj := 0; jj < jw; jj++ {
				src := b[(j0+jj)*k+l0 : (j0+jj)*k+lMax]
				for li, v := range src {
					panel[li*jw+jj] = v
				}
			}
			for i := 0; i < m; i++ {
				cr := dst[i*n+j0 : i*n+jMax]
				ar := a[i*k+l0 : i*k+lMax]
				for li, av := range ar {
					if av == 0 {
						continue
					}
					br := panel[li*jw : li*jw+jw]
					for j, bv := range br {
						cr[j] += av * bv
					}
				}
			}
		}
	}
	gemmPackBufs.Put(buf)
}

func checkGemm(ld, la, lb, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || la < m*k || lb < k*n || ld < m*n {
		panic(fmt.Sprintf("tensor: gemm operand lengths dst=%d a=%d b=%d too short for (m=%d)×(k=%d)·(k=%d)×(n=%d): need dst≥%d a≥%d b≥%d",
			ld, la, lb, m, k, k, n, m*n, m*k, k*n))
	}
}

// Linear computes dst = x·wᵀ + bias over a whole batch of rows: x is
// row-major (n × in), w is (out × in) — the Dense layer's natural layout —
// bias is (out) or nil, dst is (n × out), overwritten. It is the batched
// dense-layer kernel: a micro-batch pays the weight-matrix memory traffic
// once instead of once per sample — the dominant cost of the big fully
// connected layers, whose weights dwarf every cache.
//
// The SIMD path does NOT reuse the packed GEMM: Linear's shapes are
// tall-skinny (a micro-batch of rows against a weight matrix that dwarfs
// every cache), where packing the 150 MB-class weight operand costs more
// than the multiply itself. Instead a dedicated dot-product microkernel
// (linearKernel8 in gemm_amd64.s) computes 8 outputs × 8 SIMD lanes per
// call with no packing, streaming each weight row exactly once per batch.
// Its per-element accumulation (8 lane-partial FMA chains folded by a fixed
// tree, plus bias) depends only on `in`, never on the batch size, so
// per-sample Forward remains exactly the N=1 case, bitwise. The pure-Go
// path keeps the weight-row-outer loop (bias first, then ascending input
// index), bit-identical to the pre-SIMD implementation.
func Linear(dst, x, w, bias []float32, n, in, out int) {
	if n < 0 || in < 0 || out < 0 || len(x) < n*in || len(w) < out*in || len(dst) < n*out ||
		(bias != nil && len(bias) < out) {
		panic(fmt.Sprintf("tensor: linear operand lengths dst=%d x=%d w=%d bias=%d too short for (n=%d)×(in=%d)·(out=%d)×(in=%d): need dst≥%d x≥%d w≥%d",
			len(dst), len(x), len(w), len(bias), n, in, out, in, n*out, n*in, out*in))
	}
	if gemmAsmActive {
		linearAsm(dst, x, w, bias, n, in, out)
		return
	}
	for o := 0; o < out; o++ {
		wr := w[o*in : (o+1)*in]
		var bv float32
		if bias != nil {
			bv = bias[o]
		}
		for i := 0; i < n; i++ {
			xr := x[i*in : (i+1)*in]
			acc := bv
			for l, wv := range wr {
				acc += wv * xr[l]
			}
			dst[i*out+o] = acc
		}
	}
}

// GrowSlice returns buf if it has capacity for n elements (re-sliced to
// length n, contents unspecified) or a freshly allocated slice otherwise.
// It is the reuse primitive behind the per-context scratch buffers.
func GrowSlice(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
}
