package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// referenceLRN is the kernel LRN.normalize replaced, kept as the oracle: the
// textbook formula position by position, window sum in float64, math.Pow per
// element, one rounding to float32 at the end.
func referenceLRN(in []float32, c, hw, n int, k, alpha, beta float64) []float32 {
	out := make([]float32, len(in))
	half := n / 2
	for pos := 0; pos < hw; pos++ {
		for ch := 0; ch < c; ch++ {
			lo := ch - half
			if lo < 0 {
				lo = 0
			}
			hi := ch + half
			if hi >= c {
				hi = c - 1
			}
			var ss float64
			for j := lo; j <= hi; j++ {
				v := float64(in[j*hw+pos])
				ss += v * v
			}
			d := k + alpha/float64(n)*ss
			idx := ch*hw + pos
			out[idx] = float32(float64(in[idx]) * math.Pow(d, -beta))
		}
	}
	return out
}

// ulpDiff returns how many float32 values lie between a and b.
func ulpDiff(a, b float32) uint32 {
	// Map the sign-magnitude bit pattern onto a monotone integer line.
	ord := func(f float32) int64 {
		u := math.Float32bits(f)
		if u&(1<<31) != 0 {
			return -int64(u &^ (1 << 31))
		}
		return int64(u)
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint32(d)
}

// normalBatch returns one (1, c, h, w) batch of N(0,1)·scale activations.
func normalBatch(rng *rand.Rand, scale float64, c, h, w int) *tensor.Tensor {
	x := tensor.MustNew(1, c, h, w)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64() * scale)
	}
	return x
}

// generalLRN returns a layer off AlexNet's constants, on InvPow's math.Pow
// branch.
func generalLRN(t *testing.T, beta float64) *LRN {
	t.Helper()
	l, err := NewLRN("lrn", 3, 1, 0.5, beta)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLRNMatchesReference bounds the float32 channel-major kernel against
// the retired float64 one: ≤ 8 ulp and ≤ 1e-6 relative per element, at
// AlexNet's two normalisation sites, with fewer channels than the window,
// on the general-β (math.Pow) branch, and across input magnitudes that take
// the denominator from ≈ k to ≫ k.
func TestLRNMatchesReference(t *testing.T) {
	alex := NewAlexNetLRN("lrn")
	for _, tc := range []struct {
		l       *LRN
		c, h, w int
	}{
		{alex, 96, 55, 55},
		{alex, 256, 27, 27},
		{alex, 3, 7, 5}, // c < n
		{alex, 1, 4, 4}, // c = 1
		{generalLRN(t, 1), 6, 9, 9},
		{generalLRN(t, 0.5), 6, 9, 9},
	} {
		k, alpha, beta := tc.l.Constants()
		for _, scale := range []float64{1, 30, 300} {
			name := fmt.Sprintf("%dx%dx%d n=%d β=%v ×%v", tc.c, tc.h, tc.w, tc.l.Window(), beta, scale)
			rng := rand.New(rand.NewSource(int64(tc.c*1000) + int64(scale)))
			x := normalBatch(rng, scale, tc.c, tc.h, tc.w)
			out, err := tc.l.ForwardBatch(NewContext(), x)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := referenceLRN(x.Data(), tc.c, tc.h*tc.w, tc.l.Window(), k, alpha, beta)
			for i, g := range out.Data() {
				rel := math.Abs(float64(g)-float64(want[i])) / math.Max(math.Abs(float64(want[i])), math.SmallestNonzeroFloat32)
				if u := ulpDiff(g, want[i]); u > 8 || rel > 1e-6 {
					t.Fatalf("%s: elem %d: %v vs reference %v (%d ulp, %.2g relative)", name, i, g, want[i], u, rel)
				}
			}
		}
	}
}

// TestLRNBitIdenticalAcrossBatch pins N=1 ≡ N=8 through the entry point the
// serving path uses: eight samples packed by Sequential.ForwardSamples come
// out bit-identical to each sample forwarded alone.
func TestLRNBitIdenticalAcrossBatch(t *testing.T) {
	net, err := NewSequential("lrn-only", NewAlexNetLRN("lrn"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	xs, _ := randBatch(t, rng, 8, 12, 9, 7)
	ctx := NewContext()
	packed, err := net.ForwardSamples(ctx, 0, 1, xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		alone, err := net.ForwardSamples(ctx, 0, 1, []*tensor.Tensor{x})
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("sample %d of 8", i), packed[i], alone[0])
	}
}

// TestLazyGradInference: building a network, reading its parameters and
// running it forward — everything a serving daemon does —
// allocates no gradient accumulator; the first backward pass does, once, and
// ZeroGrads then clears it.
func TestLazyGradInference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	net, err := NewMicroAlexNet(MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	requireNoGrads := func(when string) {
		t.Helper()
		for _, p := range net.Params() {
			if p.Grad != nil {
				t.Fatalf("%s: %s has a gradient accumulator", when, p.Name)
			}
		}
	}
	requireNoGrads("after construction")
	if len(net.Params()) == 0 {
		t.Fatal("empty network")
	}
	net.ZeroGrads()
	x := tensor.MustNew(2, 3, 16, 16)
	x.FillUniform(rng, 0, 1)
	if _, err := net.ForwardBatch(NewContext(), x); err != nil {
		t.Fatal(err)
	}
	requireNoGrads("after an inference forward")

	ctx := trainCtx()
	ctx.SetRand(rng)
	logits, err := net.ForwardBatch(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	requireNoGrads("after a training forward")
	_, grad, err := CrossEntropyLossBatch(logits, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.BackwardBatch(ctx, grad); err != nil {
		t.Fatal(err)
	}
	first := net.Params()
	var total float32
	for _, p := range first {
		if p.Grad == nil || !p.Grad.SameShape(p.Value) {
			t.Fatalf("after backward: %s has no value-shaped accumulator", p.Name)
		}
		total += maxAbs(p.Grad)
	}
	if total == 0 {
		t.Fatal("backward accumulated nothing")
	}
	net.ZeroGrads()
	for i, p := range net.Params() {
		if p.Grad != first[i].Grad {
			t.Fatalf("%s: accumulator replaced, want one per layer for its lifetime", p.Name)
		}
		if maxAbs(p.Grad) != 0 {
			t.Fatalf("%s: ZeroGrads left a nonzero gradient", p.Name)
		}
	}
}
