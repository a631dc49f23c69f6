package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// convPackCase is one convolution ConvGemmAcc is checked at.
type convPackCase struct {
	n, c, h, w, k, stride, pad, outC int
}

// convPackCheck runs ConvGemmAcc and the two-step path it replaces —
// Im2colBatch, then gemmAcc over the materialised matrix — from the same
// seeded accumulator and fails unless every output is bit-identical. The
// input carries planted -0, NaN and ±Inf so that a gather that rounds,
// reorders or rewrites a value cannot hide behind random data; the weights
// carry zeros, which the pure-Go kernel skips.
func convPackCheck(t *testing.T, tc convPackCase, rng *rand.Rand) {
	t.Helper()
	outH := ConvOut(tc.h, tc.k, tc.stride, tc.pad)
	outW := ConvOut(tc.w, tc.k, tc.stride, tc.pad)
	ckk, cols := tc.c*tc.k*tc.k, tc.n*outH*outW
	x := randSlice(rng, tc.n*tc.c*tc.h*tc.w)
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range x {
		if rng.Intn(97) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
	wts := randSlice(rng, tc.outC*ckk)
	for i := range wts {
		if rng.Intn(13) == 0 {
			wts[i] = 0
		}
	}
	seed := randSlice(rng, tc.outC*cols)

	lowered := make([]float32, ckk*cols)
	if err := Im2colBatch(lowered, x, tc.n, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad); err != nil {
		t.Fatalf("%+v: %v", tc, err)
	}
	want := append([]float32(nil), seed...)
	gemmAcc(want, wts, lowered, tc.outC, ckk, cols)

	got := append([]float32(nil), seed...)
	if err := ConvGemmAcc(got, wts, x, tc.n, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad, tc.outC); err != nil {
		t.Fatalf("%+v: %v", tc, err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%+v (outH %d, outW %d): out[%d] = %v (%#x), im2col + gemm %v (%#x)",
				tc, outH, outW, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestConvPackMatchesIm2col pins ConvGemmAcc to Im2colBatch + gemmAcc bit
// for bit on whichever kernel this build runs (the noasm job runs it on the
// pure-Go one): every stride 1–4, kernel 1–11 and pad 0–3, batches of 1 to
// 9, output rows narrower and wider than a 16-column sliver (so slivers
// straddle output rows and samples), and a few shapes whose GEMM crosses
// the gemmBlockN column edge, the gemmBlockK depth and the gemmBlockMC
// filter block.
func TestConvPackMatchesIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var cases []convPackCase
	i := 0
	for stride := 1; stride <= 4; stride++ {
		for k := 1; k <= 11; k++ {
			for pad := 0; pad <= 3; pad++ {
				// Alternate output widths below and above one sliver; the
				// input width is whatever gives that width (at least 1).
				outW := []int{3, 13, 17, 22}[i%4]
				w := max(1, k+stride*(outW-1)-2*pad)
				h := max(1, k+stride*(1+i%3)-2*pad)
				cases = append(cases, convPackCase{
					n: 1 + i%9, c: 1 + i%3, h: h, w: w, k: k, stride: stride, pad: pad,
					outC: 1 + i%7,
				})
				i++
			}
		}
	}
	cases = append(cases,
		// 9 × 12 × 12 = 1296 columns: the second j-block starts inside a
		// sample and an output row; c·k·k = 147 > gemmBlockK; 193 filters.
		convPackCase{n: 9, c: 3, h: 14, w: 14, k: 7, stride: 1, pad: 2, outC: 193},
		// AlexNet conv1's kernel and stride, 242 taps, two j-blocks.
		convPackCase{n: 2, c: 2, h: 99, w: 99, k: 11, stride: 4, pad: 0, outC: 7},
		// Padding wider than the input on one side of a 1-pixel image.
		convPackCase{n: 3, c: 2, h: 1, w: 1, k: 3, stride: 1, pad: 3, outC: 5},
		// The micro net's conv2 shape.
		convPackCase{n: 4, c: 16, h: 14, w: 14, k: 3, stride: 1, pad: 1, outC: 16},
	)
	for _, tc := range cases {
		if ConvOut(tc.h, tc.k, tc.stride, tc.pad) < 1 || ConvOut(tc.w, tc.k, tc.stride, tc.pad) < 1 {
			t.Fatalf("case %+v does not fit; fix the generator", tc)
		}
		convPackCheck(t, tc, rng)
	}
}

func TestConvGemmAccErrors(t *testing.T) {
	dst, w, x := make([]float32, 64), make([]float32, 64), make([]float32, 64)
	for _, tc := range []convPackCase{
		{n: 1, c: 1, h: 2, w: 2, k: 3, stride: 1, outC: 1},           // kernel does not fit
		{n: 1, c: 1, h: 4, w: 4, k: 3, stride: 0, outC: 1},           // stride 0
		{n: 1, c: 1, h: 4, w: 4, k: 3, stride: 1, pad: -1, outC: 1},  // negative pad
		{n: 0, c: 1, h: 4, w: 4, k: 3, stride: 1, outC: 1},           // empty batch
		{n: 1, c: 1, h: 8, w: 8, k: 3, stride: 1, pad: 1, outC: 2},   // dst too short
		{n: 1, c: 1, h: 4, w: 4, k: 3, stride: 1, outC: 8},           // w too short
		{n: 5, c: 1, h: 4, w: 4, k: 1, stride: 1, outC: 1},           // x too short
		{n: 1, c: 1, h: 4, w: 4, k: 0, stride: 1, outC: 1},           // empty kernel
		{n: 1, c: 1, h: 4, w: 4, k: 3, stride: 1, pad: 0, outC: 0},   // no filters
		{n: 1, c: 0, h: 4, w: 4, k: 3, stride: 1, pad: 0, outC: 1},   // no channels
		{n: 1, c: 1, h: 40, w: 40, k: 3, stride: 1, pad: 0, outC: 1}, // x too short
	} {
		if err := ConvGemmAcc(dst, w, x, tc.n, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad, tc.outC); err == nil {
			t.Errorf("%+v: want an error", tc)
		}
	}
}

// FuzzConvPack drives the same bit-for-bit comparison over shapes the
// fuzzer picks: each byte is folded into its dimension's range.
func FuzzConvPack(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(13), uint8(29), uint8(5), uint8(2), uint8(2), uint8(9), int64(1))
	f.Add(uint8(9), uint8(1), uint8(3), uint8(3), uint8(3), uint8(1), uint8(3), uint8(1), int64(2))
	f.Add(uint8(1), uint8(3), uint8(40), uint8(40), uint8(11), uint8(4), uint8(0), uint8(20), int64(3))
	f.Fuzz(func(t *testing.T, n, c, h, w, k, stride, pad, outC uint8, seed int64) {
		tc := convPackCase{
			n: 1 + int(n)%9, c: 1 + int(c)%4, h: 1 + int(h)%40, w: 1 + int(w)%40,
			k: 1 + int(k)%11, stride: 1 + int(stride)%4, pad: int(pad) % 4, outC: 1 + int(outC)%24,
		}
		if ConvOut(tc.h, tc.k, tc.stride, tc.pad) < 1 || ConvOut(tc.w, tc.k, tc.stride, tc.pad) < 1 {
			t.Skip("kernel does not fit")
		}
		convPackCheck(t, tc, rand.New(rand.NewSource(seed)))
	})
}
