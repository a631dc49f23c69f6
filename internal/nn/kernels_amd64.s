//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 inference kernels for LRN, max-pool and ReLU. Each is the vector form
// of its layer's Go loop and performs, lane by lane, the same IEEE
// operations in the same order, so its output is that loop's bit for bit:
// no fused multiply-add, no reciprocal or reciprocal-square-root estimate.
// A partial last block of 8 lanes is loaded and stored under a lane mask
// (tailMask), so no kernel reads or writes past its row or plane.

// tailMask: 8 lanes on, then 8 off. The 8 lanes starting at byte
// 32 − 4·r have their first r lanes on.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

DATA lrnOne<>+0(SB)/4, $0x3f800000 // 1.0
GLOBL lrnOne<>(SB), RODATA|NOPTR, $4

DATA poolNegInf<>+0(SB)/4, $0xff800000 // −Inf
GLOBL poolNegInf<>(SB), RODATA|NOPTR, $4

// LRN_SCALE turns the window sums ss in Y0 and the inputs x in Y2 into the
// outputs in Y2, as mathx.InvPow's β = 0.75 form: d = k + a·ss (Y13 = k,
// Y14 = a), s = √d, r = 1/(s·√s) (Y15 = 1), y = x·r. VSQRTPS is correctly
// rounded, so it equals float32(math.Sqrt(float64(d))): double rounding is
// harmless for the square root when 53 ≥ 2·24 + 2.
//
// Every operation keeps the first (Intel) source of the scalar instruction
// the Go compiler emits for the loop — ss·a, k + t, square + sum, s·√s,
// x·r — because when both operands are NaN the hardware returns the first
// one's payload; that makes even NaN outputs equal bit for bit.
#define LRN_SCALE \
	VMULPS  Y14, Y0, Y0; \
	VADDPS  Y0, Y13, Y0; \
	VSQRTPS Y0, Y1; \
	VSQRTPS Y1, Y3; \
	VMULPS  Y3, Y1, Y1; \
	VDIVPS  Y1, Y15, Y1; \
	VMULPS  Y1, Y2, Y2

// func lrnKernel(y, x, sq *float32, planes, hw int64, k, a float32)
//
// One channel of LRN.normalize: y[p] = x[p]·InvPow(k + a·ss[p], 0.75) for
// p < hw, where ss[p] sums the squares of sq[j·hw + p] over the planes
// j = 0…planes−1 (the channel's window), in ascending j, each square
// rounded (VMULPS) before its add (VADDPS). planes >= 1, hw >= 1.
TEXT ·lrnKernel(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sq+16(FP), DX
	MOVQ planes+24(FP), R8
	MOVQ hw+32(FP), CX
	VBROADCASTSS k+40(FP), Y13
	VBROADCASTSS a+44(FP), Y14
	VBROADCASTSS lrnOne<>(SB), Y15
	MOVQ CX, R9
	SHLQ $2, R9            // plane stride in bytes
	MOVQ CX, R10
	SHRQ $3, R10           // full 8-lane blocks
	JZ   lrntail

lrnblock:
	MOVQ DX, R11
	VMOVUPS (R11), Y0
	VMULPS Y0, Y0, Y0
	MOVQ R8, R12
	DECQ R12
	JZ   lrnnorm

lrnwin:
	ADDQ R9, R11
	VMOVUPS (R11), Y1
	VMULPS Y1, Y1, Y1
	VADDPS Y0, Y1, Y0
	DECQ R12
	JNZ  lrnwin

lrnnorm:
	VMOVUPS (SI), Y2
	LRN_SCALE
	VMOVUPS Y2, (DI)
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R10
	JNZ  lrnblock

lrntail:
	ANDQ $7, CX
	JZ   lrndone
	LEAQ tailMask<>(SB), AX
	NEGQ CX
	VMOVUPS 32(AX)(CX*4), Y12
	MOVQ DX, R11
	VMASKMOVPS (R11), Y12, Y0
	VMULPS Y0, Y0, Y0
	MOVQ R8, R12
	DECQ R12
	JZ   lrntailnorm

lrntailwin:
	ADDQ R9, R11
	VMASKMOVPS (R11), Y12, Y1
	VMULPS Y1, Y1, Y1
	VADDPS Y0, Y1, Y0
	DECQ R12
	JNZ  lrntailwin

lrntailnorm:
	VMASKMOVPS (SI), Y12, Y2
	LRN_SCALE
	VMASKMOVPS Y2, Y12, (DI)

lrndone:
	VZEROUPPER
	RET

// func poolSplitRows(dst, in *float32, rows, w, ew int64)
//
// Splits each of rows input rows of w columns (rows contiguous) into its
// even columns, at dst + r·2·ew, and its odd columns, ew elements further
// on. Shuffles and copies only, so every value moves bit for bit.
// rows >= 1, w >= 1, ew >= ⌈w/2⌉.
TEXT ·poolSplitRows(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ in+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ w+24(FP), R9
	MOVQ ew+32(FP), R10
	SHLQ $2, R10           // odd half, in bytes

splitrow:
	MOVQ DI, BX
	MOVQ R9, CX
	SHRQ $4, CX            // 16-column chunks
	JZ   splittail

splitchunk:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y2  // per 128-bit lane: a0 a2 b0 b2
	VSHUFPS $0xDD, Y1, Y0, Y3  // per 128-bit lane: a1 a3 b1 b3
	VPERMPD $0xD8, Y2, Y2      // 64-bit pairs 0 2 1 3: columns 0 2 4 … 14
	VPERMPD $0xD8, Y3, Y3      // columns 1 3 5 … 15
	VMOVUPS Y2, (BX)
	VMOVUPS Y3, (BX)(R10*1)
	ADDQ $64, SI
	ADDQ $32, BX
	DECQ CX
	JNZ  splitchunk

splittail:
	MOVQ R9, CX
	ANDQ $15, CX
	JZ   splitnext

splitpair:
	MOVL (SI), AX
	MOVL AX, (BX)
	ADDQ $4, SI
	DECQ CX
	JZ   splitnext
	MOVL (SI), AX
	MOVL AX, (BX)(R10*1)
	ADDQ $4, SI
	ADDQ $4, BX
	DECQ CX
	JNZ  splitpair

splitnext:
	LEAQ (DI)(R10*2), DI
	DECQ R8
	JNZ  splitrow
	VZEROUPPER
	RET

// func maxPoolRows(out, split *float32, outH, outW, k, ew int64)
//
// A stride-2 k×k max-pool over one plane whose rows poolSplitRows has
// split (row stride 2·ew, odd half at +ew): outH rows of outW outputs.
// Each output starts at −Inf and takes every tap in (ky, kx) order as
// best = v > best ? v : best — VMAXPS with v as its first source and best
// as its second (Go syntax reverses them: VMAXPS best, v, best), which is
// the Go loop's `if v > best` for ±0 and NaN too. Tap kx of output ox
// reads input column 2·ox + kx, which is column ox + kx/2 of the even
// (kx even) or odd (kx odd) half, so every tap of an 8-output block is
// one contiguous load. Lanes past outW read split scratch (ew >= 8·⌈outW/8⌉
// + k keeps them inside the half row) and are never stored.
// outH, outW, k >= 1.
TEXT ·maxPoolRows(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ split+8(FP), R8
	MOVQ outH+16(FP), R10
	MOVQ ew+40(FP), R14
	SHLQ $2, R14            // odd half, in bytes
	LEAQ (R14)(R14*1), R12  // one split row, in bytes
	MOVQ outW+24(FP), R15
	MOVQ R15, R13
	ADDQ $7, R13
	SHRQ $3, R13            // blocks of 8 outputs, the last maybe partial
	ANDQ $7, R15            // lanes of a partial last block (0: none)
	LEAQ tailMask<>(SB), AX
	MOVQ R15, CX
	NEGQ CX
	VMOVUPS 32(AX)(CX*4), Y12
	VBROADCASTSS poolNegInf<>(SB), Y15

poolrow:
	MOVQ R8, SI
	MOVQ DI, R11
	MOVQ R13, AX

poolblock:
	VMOVAPS Y15, Y0
	MOVQ SI, BX
	MOVQ k+32(FP), CX

poolky:
	MOVQ BX, DX
	MOVQ k+32(FP), R9

poolkx:
	VMOVUPS (DX), Y1
	VMAXPS Y0, Y1, Y0
	DECQ R9
	JZ   poolkydone
	VMOVUPS (DX)(R14*1), Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $4, DX
	DECQ R9
	JNZ  poolkx

poolkydone:
	ADDQ R12, BX
	DECQ CX
	JNZ  poolky
	CMPQ AX, $1
	JNE  poolstore
	TESTQ R15, R15
	JZ   poolstore
	VMASKMOVPS Y0, Y12, (R11)
	JMP  poolnextrow

poolstore:
	VMOVUPS Y0, (R11)
	ADDQ $32, SI
	ADDQ $32, R11
	DECQ AX
	JNZ  poolblock

poolnextrow:
	MOVQ outW+24(FP), CX
	LEAQ (DI)(CX*4), DI
	LEAQ (R8)(R12*2), R8    // two input rows down
	DECQ R10
	JNZ  poolrow
	VZEROUPPER
	RET

// func reluKernel(d *float32, n int64)
//
// The inference ReLU in place over n elements: d = d > 0 ? d : +0, as
// VMAXPS with d as its first source and +0 as its second (Go syntax:
// VMAXPS zero, d, d), which is the Go loop's `if !(v > 0) { v = 0 }` for
// NaN, −0 and +0 too.
TEXT ·reluKernel(SB), NOSPLIT, $0-16
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	VXORPS Y15, Y15, Y15
	MOVQ CX, AX
	SHRQ $5, AX
	JZ   relu8

relu32:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMAXPS Y15, Y0, Y0
	VMAXPS Y15, Y1, Y1
	VMAXPS Y15, Y2, Y2
	VMAXPS Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	DECQ AX
	JNZ  relu32

relu8:
	MOVQ CX, AX
	ANDQ $31, AX
	SHRQ $3, AX
	JZ   relutail

relu8loop:
	VMOVUPS (DI), Y0
	VMAXPS Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	DECQ AX
	JNZ  relu8loop

relutail:
	ANDQ $7, CX
	JZ   reludone
	LEAQ tailMask<>(SB), AX
	NEGQ CX
	VMOVUPS 32(AX)(CX*4), Y12
	VMASKMOVPS (DI), Y12, Y0
	VMAXPS Y15, Y0, Y0
	VMASKMOVPS Y0, Y12, (DI)

reludone:
	VZEROUPPER
	RET
