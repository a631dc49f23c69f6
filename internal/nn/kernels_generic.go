//go:build !amd64 || noasm

package nn

// Fallback build (non-amd64 architectures, or `-tags noasm`): LRN, max-pool
// and ReLU always run their Go loops.
const kernelAsm = false

// The kernels are never reached when kernelAsm is false; the stubs keep the
// dispatch sites compiling on every platform.

func lrnKernel(y, x, sq *float32, planes, hw int64, k, a float32) {
	panic("nn: SIMD LRN kernel called in a noasm build")
}

func poolSplitRows(dst, in *float32, rows, w, ew int64) {
	panic("nn: SIMD pool kernel called in a noasm build")
}

func maxPoolRows(out, split *float32, outH, outW, k, ew int64) {
	panic("nn: SIMD pool kernel called in a noasm build")
}

func reluKernel(d *float32, n int64) {
	panic("nn: SIMD ReLU kernel called in a noasm build")
}
