package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxBasic(t *testing.T) {
	src := []float32{1, 2, 3}
	dst := make([]float32, 3)
	if err := Softmax(dst, src); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range dst {
		if p <= 0 || p >= 1 {
			t.Errorf("softmax value %v out of (0,1)", p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Error("softmax should be monotone in its inputs")
	}
}

func TestSoftmaxStability(t *testing.T) {
	src := []float32{1000, 1001, 1002}
	dst := make([]float32, 3)
	if err := Softmax(dst, src); err != nil {
		t.Fatal(err)
	}
	for _, p := range dst {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			t.Fatalf("softmax overflow: %v", dst)
		}
	}
}

func TestSoftmaxAliasAndErrors(t *testing.T) {
	src := []float32{0, 0}
	if err := Softmax(src, src); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(src[0])-0.5) > 1e-6 {
		t.Errorf("aliased softmax = %v, want 0.5", src[0])
	}
	if err := Softmax(make([]float32, 1), make([]float32, 2)); err == nil {
		t.Error("length mismatch should fail")
	}
	if err := Softmax(nil, nil); err == nil {
		t.Error("empty softmax should fail")
	}
}

func TestInvPow(t *testing.T) {
	// β = 0.75 takes the square-root form: a few float32 roundings away
	// from the exact power over the range an LRN denominator covers.
	for d := float32(1); d < 1e6; d *= 1.37 {
		want := math.Pow(float64(d), -0.75)
		if got := float64(InvPow(d, 0.75)); math.Abs(got-want) > 4e-7*want {
			t.Errorf("InvPow(%v, 0.75) = %v, want %v", d, got, want)
		}
	}
	if got := InvPow(16, 0.75); got != 0.125 {
		t.Errorf("InvPow(16, 0.75) = %v, want 0.125 exactly", got)
	}
	// Any other β is math.Pow rounded once.
	for _, beta := range []float64{0.5, 1, 0.7500001} {
		if got, want := InvPow(3.5, beta), float32(math.Pow(3.5, -beta)); got != want {
			t.Errorf("InvPow(3.5, %v) = %v, want %v", beta, got, want)
		}
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.n != 0 {
		t.Error("zero value should be ready to use")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.n != 8 {
		t.Errorf("n = %d, want 8", w.n)
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Var()-4) > 1e-12 {
		t.Errorf("Var = %v, want 4", w.Var())
	}
	if math.Abs(w.Std()-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", w.Std())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3.0, 2},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty quantile should fail")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q out of range should fail")
	}
	one, err := Quantile([]float64{42}, 0.9)
	if err != nil || one != 42 {
		t.Errorf("singleton quantile = %v, %v", one, err)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{1, 2, 3})
	if math.Abs(m-2) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
	if math.Abs(s-math.Sqrt(2.0/3.0)) > 1e-12 {
		t.Errorf("std = %v", s)
	}
	m, s = MeanStd(nil)
	if m != 0 || s != 0 {
		t.Error("MeanStd(empty) should be 0,0")
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ q, want float64 }{
		{0.5, 0},
		{0.8413447, 1.0},  // Φ(1) ≈ 0.8413
		{0.9772499, 2.0},  // Φ(2)
		{0.1586553, -1.0}, // Φ(-1)
		{0.0013499, -3.0}, // deep tail
	}
	for _, c := range cases {
		got, err := NormalQuantile(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, bad := range []float64{0, 1, -0.1, 1.1} {
		if _, err := NormalQuantile(bad); err == nil {
			t.Errorf("NormalQuantile(%v) should fail", bad)
		}
	}
}

// Property: softmax output always sums to ~1 and is a valid distribution.
func TestQuickSoftmaxDistribution(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		src := make([]float32, len(raw))
		for i, v := range raw {
			src[i] = float32(v) / 100
		}
		dst := make([]float32, len(src))
		if err := Softmax(dst, src); err != nil {
			return false
		}
		var sum float64
		for _, p := range dst {
			if p < 0 || math.IsNaN(float64(p)) {
				return false
			}
			sum += float64(p)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: NormalQuantile is monotone and antisymmetric about 0.5.
func TestQuickNormalQuantileShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		q := 0.001 + 0.998*rng.Float64()
		x1, err := NormalQuantile(q)
		if err != nil {
			t.Fatal(err)
		}
		x2, err := NormalQuantile(1 - q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(x1+x2) > 1e-6 {
			t.Fatalf("antisymmetry violated at q=%v: %v vs %v", q, x1, x2)
		}
		q2 := q + 0.0005
		if q2 < 1 {
			y, err := NormalQuantile(q2)
			if err != nil {
				t.Fatal(err)
			}
			if y < x1 {
				t.Fatalf("monotonicity violated at q=%v", q)
			}
		}
	}
}

// Property: Welford matches the two-pass mean for arbitrary inputs.
func TestQuickWelfordMatchesTwoPass(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		return math.Abs(w.Mean()-sum/float64(len(raw))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
