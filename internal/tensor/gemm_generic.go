//go:build !amd64 || noasm

package tensor

// Fallback build (non-amd64 architectures, or `-tags noasm`): the SIMD
// microkernel path is compiled out, gemmAsmActive stays false, and every
// GEMM runs the pure-Go blocked kernels in matmul.go — bit-identical to the
// pre-SIMD implementation.

// gemmAsmRows is never reached when gemmAsmActive is false; the stub keeps
// the dispatch sites in matmul.go compiling on every platform.
func gemmAsmRows(dst, a, b []float32, m, k, n int, aT, bT bool, conv *convGeom) {
	panic("tensor: SIMD gemm kernel called in a noasm build")
}

// linearAsm is the SIMD Linear driver; same never-reached contract as
// gemmAsmRows.
func linearAsm(dst, x, w, bias []float32, n, in, out int) {
	panic("tensor: SIMD linear kernel called in a noasm build")
}
