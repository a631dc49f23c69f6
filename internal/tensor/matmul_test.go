package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// gemmRef is the schoolbook reference the blocked kernels are checked
// against.
func gemmRef(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for l := 0; l < k; l++ {
				acc += float64(a[i*k+l]) * float64(b[l*n+j])
			}
			dst[i*n+j] += float32(acc)
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

func closeSlices(t *testing.T, name string, got, want []float32, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Abs(float64(got[i])-float64(want[i])) > tol {
			t.Fatalf("%s[%d]: got %v want %v", name, i, got[i], want[i])
		}
	}
}

func TestGemmAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sizes straddle the block boundaries (64, 128) deliberately.
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 4, 5}, {64, 128, 7}, {65, 129, 33}, {130, 70, 3}, {16, 300, 50},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randSlice(rng, m*k), randSlice(rng, k*n)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		Gemm(got, a, b, m, k, n)
		gemmRef(want, a, b, m, k, n)
		closeSlices(t, "gemm", got, want, 1e-4)

		// Accumulating variant adds on top of existing contents.
		gemmAcc(got, a, b, m, k, n)
		gemmRef(want, a, b, m, k, n)
		closeSlices(t, "gemmAcc", got, want, 1e-4)
	}
}

func TestGemmTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{3, 4, 5}, {65, 130, 17}, {20, 9, 70}} {
		m, k, n := dims[0], dims[1], dims[2]

		// GemmTA: dst += aᵀ·b with a stored (k×m).
		aT := randSlice(rng, k*m)
		b := randSlice(rng, k*n)
		got := make([]float32, m*n)
		GemmTA(got, aT, b, m, k, n)
		a := make([]float32, m*k)
		for l := 0; l < k; l++ {
			for i := 0; i < m; i++ {
				a[i*k+l] = aT[l*m+i]
			}
		}
		want := make([]float32, m*n)
		gemmRef(want, a, b, m, k, n)
		closeSlices(t, "gemmTA", got, want, 1e-4)

		// GemmTB: dst += a·bᵀ with b stored (n×k).
		bT := randSlice(rng, n*k)
		got2 := make([]float32, m*n)
		GemmTB(got2, a, bT, m, k, n)
		b2 := make([]float32, k*n)
		for j := 0; j < n; j++ {
			for l := 0; l < k; l++ {
				b2[l*n+j] = bT[j*k+l]
			}
		}
		want2 := make([]float32, m*n)
		gemmRef(want2, a, b2, m, k, n)
		closeSlices(t, "gemmTB", got2, want2, 1e-4)
	}
}

// im2colRef extracts column (oy, ox), row (ch, ky, kx) by direct indexing.
func im2colRef(src []float32, c, h, w, k, stride, pad int) []float32 {
	outH := ConvOut(h, k, stride, pad)
	outW := ConvOut(w, k, stride, pad)
	n := outH * outW
	dst := make([]float32, c*k*k*n)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy := oy*stride - pad + ky
						ix := ox*stride - pad + kx
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = src[(ch*h+iy)*w+ix]
						}
						dst[((ch*k+ky)*k+kx)*n+oy*outW+ox] = v
					}
				}
			}
		}
	}
	return dst
}

func TestIm2colAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range [][6]int{
		// c, h, w, k, stride, pad
		{1, 4, 4, 2, 1, 0},
		{3, 8, 7, 3, 1, 1},
		{2, 9, 9, 3, 2, 0},
		{3, 11, 11, 5, 2, 2},
		{4, 6, 6, 1, 1, 0},
	} {
		c, h, w, k, stride, pad := tc[0], tc[1], tc[2], tc[3], tc[4], tc[5]
		src := randSlice(rng, c*h*w)
		want := im2colRef(src, c, h, w, k, stride, pad)
		got := make([]float32, len(want))
		if err := Im2colBatch(got, src, 1, c, h, w, k, stride, pad); err != nil {
			t.Fatal(err)
		}
		closeSlices(t, "im2col", got, want, 0)
	}
}

func TestConvOut(t *testing.T) {
	for _, tc := range []struct{ in, k, stride, pad, want int }{
		{227, 11, 4, 0, 55},
		{5, 3, 1, 1, 5},
		{4, 2, 2, 0, 2},
		// Kernel does not fit: must be 0, NOT the 1 that truncating
		// division of the negative numerator would produce.
		{2, 3, 2, 0, 0},
		{1, 5, 1, 1, 0},
		{2, 3, 1, 1, 2}, // fits only thanks to padding
	} {
		if got := ConvOut(tc.in, tc.k, tc.stride, tc.pad); got != tc.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d",
				tc.in, tc.k, tc.stride, tc.pad, got, tc.want)
		}
	}
}

func TestIm2colErrors(t *testing.T) {
	if err := Im2colBatch(make([]float32, 1), make([]float32, 4), 1, 1, 2, 2, 3, 1, 0); err == nil {
		t.Error("expected kernel-does-not-fit error")
	}
	if err := Im2colBatch(make([]float32, 1), make([]float32, 16), 1, 1, 4, 4, 2, 1, 0); err == nil {
		t.Error("expected short-dst error")
	}
}

// TestCol2imAdjoint checks the defining adjoint identity
// ⟨Im2colBatch(x), g⟩ = ⟨x, Col2imBatch(g)⟩ on random data (a batch of one).
func TestCol2imAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, h, w, k, stride, pad := 3, 9, 8, 3, 2, 1
	outH, outW := ConvOut(h, k, stride, pad), ConvOut(w, k, stride, pad)
	n := outH * outW
	x := randSlice(rng, c*h*w)
	g := randSlice(rng, c*k*k*n)

	cols := make([]float32, c*k*k*n)
	if err := Im2colBatch(cols, x, 1, c, h, w, k, stride, pad); err != nil {
		t.Fatal(err)
	}
	back := make([]float32, c*h*w)
	if err := Col2imBatch(back, g, 1, c, h, w, k, stride, pad); err != nil {
		t.Fatal(err)
	}
	var lhs, rhs float64
	for i := range cols {
		lhs += float64(cols[i]) * float64(g[i])
	}
	for i := range x {
		rhs += float64(x[i]) * float64(back[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v != %v", lhs, rhs)
	}
}

func TestGrowSlice(t *testing.T) {
	buf := make([]float32, 10, 20)
	got := GrowSlice(buf, 15)
	if &got[0] != &buf[0] || len(got) != 15 {
		t.Error("GrowSlice should re-slice within capacity")
	}
	got2 := GrowSlice(buf, 30)
	if len(got2) != 30 {
		t.Error("GrowSlice should allocate beyond capacity")
	}
}
