//go:build amd64 && !noasm

package nn

import "repro/internal/tensor"

// kernelAsm selects the AVX2 inference kernels for LRN, max-pool and ReLU.
// It reads the GEMM's CPU check (AVX2, FMA and OS support for YMM state), so
// the package has no detector of its own. Building with `-tags noasm`, or
// for another architecture, removes this file and every layer runs its Go
// loop.
var kernelAsm = tensor.SIMDActive()

// lrnKernel normalises one channel plane of hw elements; see
// kernels_amd64.s. Implemented in kernels_amd64.s.
//
//go:noescape
func lrnKernel(y, x, sq *float32, planes, hw int64, k, a float32)

// poolSplitRows splits rows of w columns into even and odd columns.
// Implemented in kernels_amd64.s.
//
//go:noescape
func poolSplitRows(dst, in *float32, rows, w, ew int64)

// maxPoolRows pools split rows at stride 2. Implemented in kernels_amd64.s.
//
//go:noescape
func maxPoolRows(out, split *float32, outH, outW, k, ew int64)

// reluKernel clamps n elements in place. Implemented in kernels_amd64.s.
//
//go:noescape
func reluKernel(d *float32, n int64)
