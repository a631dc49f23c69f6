package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Randomized-shape harness for the GEMM kernel generations. The golden
// contract: whichever inner kernel is active (SIMD microkernel or pure-Go
// fallback — GemmKernel says which; the noasm CI job runs this same file
// against the fallback), every public entry point must match a float64
// schoolbook reference within FMA-rounding tolerance, for ragged shapes
// whose tails are smaller than one register tile, one packed sliver, or
// one cache block. On the SIMD path each result is additionally checked
// against the pure-Go scalar kernel, pinning the two generations together.

// gemmFuzzShapes draws dimension triples biased toward the boundaries
// where the kernels switch behavior: sub-tile tails (< 6 rows, < 16
// columns), sub-panel depths (< 128), and sizes straddling the cache
// blocks (128, 192, 1024).
func gemmFuzzShapes(rng *rand.Rand, n int) [][3]int {
	edges := []int{1, 2, 5, 6, 7, 15, 16, 17, 127, 128, 129, 191, 192, 193}
	draw := func() int {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return 1 + rng.Intn(260)
	}
	shapes := [][3]int{
		{1, 1, 1}, {6, 16, 16}, {7, 17, 17}, {5, 1030, 15}, {200, 129, 33},
	}
	for len(shapes) < n {
		shapes = append(shapes, [3]int{draw(), draw(), draw()})
	}
	return shapes
}

// gemmFuzzTol scales the comparison tolerance with the accumulation depth:
// inputs are in [-1, 1), so per-element error grows with k times the float32
// epsilon regardless of which kernel ordered the additions.
func gemmFuzzTol(k int) float64 { return 1e-6 * float64(k+32) }

func TestGemmFuzzAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, dims := range gemmFuzzShapes(rng, 40) {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randSlice(rng, m*k), randSlice(rng, k*n)
		got := make([]float32, m*n)
		Gemm(got, a, b, m, k, n)
		want := make([]float32, m*n)
		gemmRef(want, a, b, m, k, n)
		closeSlices(t, "gemm", got, want, gemmFuzzTol(k))

		if gemmAsmActive {
			scalar := make([]float32, m*n)
			gemmAccScalar(scalar, a, b, m, k, n, nil)
			closeSlices(t, "gemm asm-vs-scalar", got, scalar, gemmFuzzTol(k))
		}
	}
}

func TestGemmTAFuzzAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, dims := range gemmFuzzShapes(rng, 25) {
		m, k, n := dims[0], dims[1], dims[2]
		aT, b := randSlice(rng, k*m), randSlice(rng, k*n)
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
		closeSlices(t, "gemmTA", got, want, gemmFuzzTol(k))

		if gemmAsmActive {
			scalar := make([]float32, m*n)
			gemmTAScalar(scalar, aT, b, m, k, n)
			closeSlices(t, "gemmTA asm-vs-scalar", got, scalar, gemmFuzzTol(k))
		}
	}
}

func TestGemmTBFuzzAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, dims := range gemmFuzzShapes(rng, 25) {
		m, k, n := dims[0], dims[1], dims[2]
		a, bT := randSlice(rng, m*k), randSlice(rng, n*k)
		got := make([]float32, m*n)
		GemmTB(got, a, bT, m, k, n)
		b := make([]float32, k*n)
		for j := 0; j < n; j++ {
			for l := 0; l < k; l++ {
				b[l*n+j] = bT[j*k+l]
			}
		}
		want := make([]float32, m*n)
		gemmRef(want, a, b, m, k, n)
		closeSlices(t, "gemmTB", got, want, gemmFuzzTol(k))

		if gemmAsmActive {
			scalar := make([]float32, m*n)
			gemmTBScalar(scalar, a, bT, m, k, n)
			closeSlices(t, "gemmTB asm-vs-scalar", got, scalar, gemmFuzzTol(k))
		}
	}
}

func TestLinearFuzzAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for si, dims := range gemmFuzzShapes(rng, 25) {
		n, in, out := dims[0], dims[1], dims[2]
		x, w := randSlice(rng, n*in), randSlice(rng, out*in)
		var bias []float32
		if si%2 == 0 {
			bias = randSlice(rng, out)
		}
		got := make([]float32, n*out)
		Linear(got, x, w, bias, n, in, out)
		for i := 0; i < n; i++ {
			for o := 0; o < out; o++ {
				var acc float64
				if bias != nil {
					acc = float64(bias[o])
				}
				for l := 0; l < in; l++ {
					acc += float64(x[i*in+l]) * float64(w[o*in+l])
				}
				g := float64(got[i*out+o])
				if math.Abs(g-acc) > gemmFuzzTol(in) {
					t.Fatalf("linear n=%d in=%d out=%d [%d,%d]: got %v want %v", n, in, out, i, o, g, acc)
				}
			}
		}
		// Per-sample forwards must be exactly the batched rows: the serving
		// plane's sub-batch equivalence rests on this being bitwise.
		row := make([]float32, out)
		for i := 0; i < n; i++ {
			Linear(row, x[i*in:(i+1)*in], w, bias, 1, in, out)
			for o, v := range row {
				if v != got[i*out+o] {
					t.Fatalf("linear n=%d in=%d out=%d row %d col %d: per-sample %v != batched %v",
						n, in, out, i, o, v, got[i*out+o])
				}
			}
		}
	}
}

// TestGemmConcurrentCalls runs many simultaneous GEMMs — one per pool
// worker is the serving plane's real concurrency shape — and checks every
// result stays bit-identical to a quiet run. Under -race this also pins the
// sync.Pool packing-scratch reuse (a shared panel between two in-flight
// calls would be an immediate report).
func TestGemmConcurrentCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	m, k, n := 48, 130, 96
	a, b := randSlice(rng, m*k), randSlice(rng, k*n)
	bias := randSlice(rng, n)

	wantGemm := make([]float32, m*n)
	Gemm(wantGemm, a, b, m, k, n)
	wantLin := make([]float32, m*n)
	Linear(wantLin, a, b, bias, m, k, n)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 4; iter++ {
				dst := make([]float32, m*n)
				want := wantGemm
				name := "gemm"
				if (g+iter)%2 == 0 {
					Gemm(dst, a, b, m, k, n)
				} else {
					Linear(dst, a, b, bias, m, k, n)
					want, name = wantLin, "linear"
				}
				for i := range dst {
					if dst[i] != want[i] {
						errs <- name
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("concurrent %s diverged from the quiet result", name)
	}
}
