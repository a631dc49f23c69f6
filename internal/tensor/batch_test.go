package tensor

import (
	"math/rand"
	"strings"
	"testing"
)

// TestGemmCrossesNBlock pins the j-blocked kernel against the reference at
// sizes that straddle the gemmBlockN boundary — the regime the batch-wide
// convolution GEMMs live in.
func TestGemmCrossesNBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{
		{3, 5, 1023}, {2, 7, 1024}, {4, 3, 1025}, {65, 129, 2050},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randSlice(rng, m*k), randSlice(rng, k*n)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		Gemm(got, a, b, m, k, n)
		gemmRef(want, a, b, m, k, n)
		closeSlices(t, "gemm-nblock", got, want, 1e-3)
	}
}

// linearRef is the schoolbook y = x·wᵀ + b reference.
func linearRef(dst, x, w, bias []float32, n, in, out int) {
	for i := 0; i < n; i++ {
		for o := 0; o < out; o++ {
			var acc float64
			if bias != nil {
				acc = float64(bias[o])
			}
			for l := 0; l < in; l++ {
				acc += float64(x[i*in+l]) * float64(w[o*in+l])
			}
			dst[i*out+o] = float32(acc)
		}
	}
}

func TestLinearAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dims := range [][3]int{
		{1, 1, 1}, {1, 37, 5}, {4, 64, 10}, {9, 130, 65}, {32, 300, 7},
	} {
		n, in, out := dims[0], dims[1], dims[2]
		x, w, bias := randSlice(rng, n*in), randSlice(rng, out*in), randSlice(rng, out)
		got := make([]float32, n*out)
		want := make([]float32, n*out)
		Linear(got, x, w, bias, n, in, out)
		linearRef(want, x, w, bias, n, in, out)
		closeSlices(t, "linear", got, want, 1e-4)

		// nil bias = zero bias.
		Linear(got, x, w, nil, n, in, out)
		for i := range want {
			want[i] = 0
		}
		linearRef(want, x, w, nil, n, in, out)
		closeSlices(t, "linear-nobias", got, want, 1e-4)
	}
}

// TestLinearMatchesPerSample pins the "per-sample Forward is the N=1 case"
// contract bit-for-bit: running Linear row by row must equal the batch call.
func TestLinearMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, in, out := 6, 50, 11
	x, w, bias := randSlice(rng, n*in), randSlice(rng, out*in), randSlice(rng, out)
	batch := make([]float32, n*out)
	Linear(batch, x, w, bias, n, in, out)
	for i := 0; i < n; i++ {
		row := make([]float32, out)
		Linear(row, x[i*in:(i+1)*in], w, bias, 1, in, out)
		for o, v := range row {
			if batch[i*out+o] != v {
				t.Fatalf("row %d col %d: batch %v != per-sample %v", i, o, batch[i*out+o], v)
			}
		}
	}
}

// TestIm2colBatchMatchesPerSample checks that the batch lowering lays each
// sample's im2col matrix into the batch matrix's column slots verbatim.
func TestIm2colBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, c, h, w, k, stride, pad int }{
		{1, 1, 5, 5, 3, 1, 0},
		{2, 3, 8, 8, 3, 1, 1},
		{5, 2, 9, 7, 3, 2, 1},
		{3, 3, 11, 11, 5, 2, 0},
		{4, 1, 6, 6, 2, 2, 0},
	} {
		outH := ConvOut(tc.h, tc.k, tc.stride, tc.pad)
		outW := ConvOut(tc.w, tc.k, tc.stride, tc.pad)
		hw := outH * outW
		ckk := tc.c * tc.k * tc.k
		src := randSlice(rng, tc.n*tc.c*tc.h*tc.w)
		batch := make([]float32, ckk*tc.n*hw)
		if err := Im2colBatch(batch, src, tc.n, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tc.n; s++ {
			one := make([]float32, ckk*hw)
			err := Im2colBatch(one, src[s*tc.c*tc.h*tc.w:(s+1)*tc.c*tc.h*tc.w], 1,
				tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ckk; r++ {
				for p := 0; p < hw; p++ {
					got := batch[r*tc.n*hw+s*hw+p]
					want := one[r*hw+p]
					if got != want {
						t.Fatalf("%+v sample %d row %d pos %d: batch %v != per-sample %v",
							tc, s, r, p, got, want)
					}
				}
			}
		}
	}
}

func TestIm2colBatchErrorsNameDims(t *testing.T) {
	dst := make([]float32, 1)
	err := Im2colBatch(dst, make([]float32, 2*3*8*8), 2, 3, 8, 8, 3, 1, 1)
	if err == nil {
		t.Fatal("undersized dst accepted")
	}
	for _, want := range []string{"batch 2", "(3,8,8)", "kernel 3", "stride 1", "pad 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if err := Im2colBatch(dst, dst, 0, 1, 3, 3, 3, 1, 0); err == nil {
		t.Fatal("batch 0 accepted")
	}
}

func TestStackAndSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := make([]*Tensor, 3)
	for i := range ts {
		x := MustNew(2, 4, 5)
		x.FillUniform(rng, -1, 1)
		ts[i] = x
	}
	b, err := Stack(ts)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Shape(); got[0] != 3 || got[1] != 2 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("stack shape %v", got)
	}
	for i, x := range ts {
		v, err := b.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(x) {
			t.Fatalf("sample %d does not round-trip", i)
		}
	}
	// Stack copies: mutating the batch must not touch the inputs.
	before := ts[0].At3(0, 0, 0)
	b.Set(before+1, 0, 0, 0, 0)
	if ts[0].At3(0, 0, 0) != before {
		t.Fatal("stack aliases its inputs")
	}

	if _, err := Stack(nil); err == nil {
		t.Fatal("empty stack accepted")
	}
	if _, err := Stack([]*Tensor{ts[0], MustNew(2, 4, 6)}); err == nil ||
		!strings.Contains(err.Error(), "[2 4 6]") {
		t.Fatalf("mismatched stack error %v does not name the offending shape", err)
	}
	if _, err := b.Sample(3); err == nil {
		t.Fatal("out-of-range sample accepted")
	}
	if _, err := ts[0].Sample(5); err == nil {
		t.Fatal("sample beyond leading dim accepted")
	}
}
