//go:build amd64 && !noasm

package reliable

import "repro/internal/tensor"

// rowAsm selects the AVX2 kernel for stride-1 row passes. It reads the GEMM's
// CPU check (AVX2, FMA and OS support for YMM state), so the package has no
// detector of its own. Building with `-tags noasm`, or for another
// architecture, removes this file and every row pass runs the Go loop.
var rowAsm = tensor.SIMDActive()

// convRowKernel computes one stride-1 output row; see conv_amd64.s for the
// arguments. Implemented in conv_amd64.s.
//
//go:noescape
func convRowKernel(acc, in, w *float32, masks *int32, off, chanStride, inW, inC, nky, kw, wChan, blocks int64, bias float32)
