//go:build amd64 && !noasm

#include "textflag.h"

// func convRowKernel(acc, in, w *float32, masks *int32, off, chanStride, inW, inC, nky, kw, wChan, blocks int64, bias float32)
//
// One stride-1 output row of a direct convolution, the vector form of
// convRowPass's Go loop. The row is cut into 32-column blocks; a block's
// four YMM accumulators Y0–Y3 start at the bias, take every tap in
// (c, ky, kx) order and are stored once. For each tap the weight is
// broadcast, the shifted input span is loaded under the tap's lane mask
// (masked-off lanes are never read, so the span may start before or end
// past the input row), multiplied (VMULPS, rounded) and added (VADDPS,
// rounded), and the sum is blended into the accumulator under the same
// mask, so a lane outside the tap's span keeps its value bit for bit (-0
// stays -0). A tap whose mask flags it as covering every column of the
// block that lies in the row adds without the blend: the lanes it would
// protect are past the row and never stored. Each stored lane therefore
// performs exactly the scalar acc = acc + float32(v*wk) sequence. There is
// deliberately no VFMADD here: a fused multiply-add rounds once and breaks
// bit identity.
//
// Arguments, counted in float32 / int32 elements:
//   in+off  block 0, column 0 of the first kernel row inside the image, in
//           channel 0: off = (iy0+kyLo)·inW − pad, which may be negative
//   w       the filter's tap at that kernel row, kx = 0; the nky rows of
//           one channel are contiguous (nky·kw taps), channels wChan apart
//   masks   per block, kw tap masks then one store mask, 32 lanes each; a
//           lane is on when its sign bit is set, and bit 0 of a tap mask's
//           lane 0 is the tap's covers-the-block flag
//   inC, nky, kw and blocks are all >= 1.
TEXT ·convRowKernel(SB), NOSPLIT, $0-100
	MOVQ acc+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ off+32(FP), AX
	LEAQ (SI)(AX*4), SI    // block 0, column 0 of the first valid row
	MOVQ masks+24(FP), R8
	MOVQ blocks+88(FP), R9

block:
	VBROADCASTSS bias+96(FP), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	MOVQ SI, R10           // channel's first valid row
	MOVQ w+16(FP), R11     // channel's first valid tap
	MOVQ inC+56(FP), CX

channel:
	MOVQ R10, R12
	MOVQ R11, R13
	MOVQ nky+64(FP), DX

row:
	MOVQ R8, AX            // tap masks of this block
	MOVQ R12, BX
	MOVQ kw+72(FP), R15
	PCALIGN $64

tap:
	VBROADCASTSS (R13), Y8
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VMOVUPS 64(AX), Y6
	VMOVUPS 96(AX), Y7
	VMASKMOVPS (BX), Y4, Y9
	VMASKMOVPS 32(BX), Y5, Y10
	VMASKMOVPS 64(BX), Y6, Y11
	VMASKMOVPS 96(BX), Y7, Y12
	VMULPS Y8, Y9, Y9
	VMULPS Y8, Y10, Y10
	VMULPS Y8, Y11, Y11
	VMULPS Y8, Y12, Y12
	TESTL $1, (AX)         // the tap covers every column of the block in the row
	JZ   partial
	VADDPS Y9, Y0, Y0
	VADDPS Y10, Y1, Y1
	VADDPS Y11, Y2, Y2
	VADDPS Y12, Y3, Y3

nexttap:
	ADDQ $128, AX
	ADDQ $4, BX
	ADDQ $4, R13
	DECQ R15
	JNZ  tap

	MOVQ inW+48(FP), R14
	LEAQ (R12)(R14*4), R12
	DECQ DX
	JNZ  row

	MOVQ chanStride+40(FP), R14
	LEAQ (R10)(R14*4), R10
	MOVQ wChan+80(FP), R14
	LEAQ (R11)(R14*4), R11
	DECQ CX
	JNZ  channel

	// Store under the block's store mask (the columns inside the row).
	MOVQ kw+72(FP), R14
	SHLQ $7, R14           // kw tap masks of 128 bytes
	ADDQ R14, R8
	VMOVUPS (R8), Y4
	VMOVUPS 32(R8), Y5
	VMOVUPS 64(R8), Y6
	VMOVUPS 96(R8), Y7
	VMASKMOVPS Y0, Y4, (DI)
	VMASKMOVPS Y1, Y5, 32(DI)
	VMASKMOVPS Y2, Y6, 64(DI)
	VMASKMOVPS Y3, Y7, 96(DI)
	ADDQ $128, R8          // next block's masks
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ R9
	JNZ  block

	VZEROUPPER
	RET

	// A tap that reaches only part of the block: add, then blend the sums
	// in under the tap mask. Out of line, so a covering tap runs straight
	// through the loop.
partial:
	VADDPS Y9, Y0, Y9
	VADDPS Y10, Y1, Y10
	VADDPS Y11, Y2, Y11
	VADDPS Y12, Y3, Y12
	VBLENDVPS Y4, Y9, Y0, Y0
	VBLENDVPS Y5, Y10, Y1, Y1
	VBLENDVPS Y6, Y11, Y2, Y2
	VBLENDVPS Y7, Y12, Y3, Y3
	JMP  nexttap
