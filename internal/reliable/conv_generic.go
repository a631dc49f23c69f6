//go:build !amd64 || noasm

package reliable

// Fallback build (non-amd64 architectures, or `-tags noasm`): the row pass
// always runs the Go loop.
const rowAsm = false

// convRowKernel is never reached when rowAsm is false; the stub keeps
// convRowSIMD compiling on every platform.
func convRowKernel(acc, in, w *float32, masks *int32, off, chanStride, inW, inC, nky, kw, wChan, blocks int64, bias float32) {
	panic("reliable: SIMD row kernel called in a noasm build")
}
