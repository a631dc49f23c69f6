package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	cases := []struct {
		shape   []int
		wantLen int
	}{
		{[]int{}, 1},
		{[]int{0}, 0},
		{[]int{5}, 5},
		{[]int{2, 3}, 6},
		{[]int{3, 4, 5}, 60},
		{[]int{2, 3, 4, 5}, 120},
	}
	for _, c := range cases {
		tn, err := New(c.shape...)
		if err != nil {
			t.Fatalf("New(%v): %v", c.shape, err)
		}
		if tn.Len() != c.wantLen {
			t.Errorf("New(%v).Len() = %d, want %d", c.shape, tn.Len(), c.wantLen)
		}
		if tn.Rank() != len(c.shape) {
			t.Errorf("New(%v).Rank() = %d, want %d", c.shape, tn.Rank(), len(c.shape))
		}
	}
}

func TestNewNegativeDim(t *testing.T) {
	if _, err := New(2, -1); err == nil {
		t.Fatal("New(2,-1) should fail")
	}
}

func TestFromSliceLengthMismatch(t *testing.T) {
	if _, err := FromSlice(make([]float32, 5), 2, 3); err == nil {
		t.Fatal("FromSlice with wrong length should fail")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tn := MustNew(2, 3, 4)
	v := float32(0)
	for c := 0; c < 2; c++ {
		for h := 0; h < 3; h++ {
			for w := 0; w < 4; w++ {
				tn.Set(v, c, h, w)
				v++
			}
		}
	}
	v = 0
	for c := 0; c < 2; c++ {
		for h := 0; h < 3; h++ {
			for w := 0; w < 4; w++ {
				if got := tn.At(c, h, w); got != v {
					t.Fatalf("At(%d,%d,%d) = %v, want %v", c, h, w, got, v)
				}
				if got := tn.At3(c, h, w); got != v {
					t.Fatalf("At3(%d,%d,%d) = %v, want %v", c, h, w, got, v)
				}
				v++
			}
		}
	}
}

// TestAtSetNoAlloc: the variadic index of At/Set stays on the caller's
// stack — the morphology and contour loops call them once per neighbour per
// pixel — and the out-of-range panic still names the index and the shape.
func TestAtSetNoAlloc(t *testing.T) {
	m2, m3 := MustNew(4, 5), MustNew(2, 4, 5)
	y, x := 3, 4
	if n := testing.AllocsPerRun(100, func() {
		m2.Set(m2.At(y, x)+1, y, x)
		m3.Set(m3.At(1, y, x)+1, 1, y, x)
	}); n != 0 {
		t.Fatalf("At/Set allocate %v times per call pair, want 0", n)
	}
	defer func() {
		const want = "tensor: index [1 5] out of range for shape [4 5]"
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	m2.At(1, 5)
}

func TestSet3Set4(t *testing.T) {
	t3 := MustNew(2, 3, 4)
	t3.Set3(7, 1, 2, 3)
	if t3.At(1, 2, 3) != 7 {
		t.Error("Set3 did not store at expected index")
	}
	t4 := MustNew(2, 3, 4, 5)
	t4.Set(9, 1, 2, 3, 4)
	if t4.Data()[t4.Len()-1] != 9 {
		t.Error("Set did not store at expected index")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
	if !a.SameShape(b) {
		t.Error("Clone changed shape")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := MustFromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Error("Reshape should share storage")
	}
	if _, err := a.Reshape(4, 2); err == nil {
		t.Error("Reshape to wrong element count should fail")
	}
}

func TestChannelView(t *testing.T) {
	a := MustNew(3, 2, 2)
	for i := range a.Data() {
		a.Data()[i] = float32(i)
	}
	ch, err := a.Channel(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.At(0, 0); got != 4 {
		t.Errorf("Channel(1).At(0,0) = %v, want 4", got)
	}
	ch.Set(-1, 1, 1)
	if a.At(1, 1, 1) != -1 {
		t.Error("Channel view should share storage")
	}
	if _, err := a.Channel(3); err == nil {
		t.Error("out-of-range channel should fail")
	}
	if _, err := MustNew(2, 2).Channel(0); err == nil {
		t.Error("Channel on rank-2 tensor should fail")
	}
}

func TestFilterView(t *testing.T) {
	a := MustNew(2, 3, 2, 2)
	for i := range a.Data() {
		a.Data()[i] = float32(i)
	}
	f, err := a.Filter(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.At(0, 0, 0); got != 12 {
		t.Errorf("Filter(1).At(0,0,0) = %v, want 12", got)
	}
	if _, err := a.Filter(2); err == nil {
		t.Error("out-of-range filter should fail")
	}
	if _, err := MustNew(2, 2).Filter(0); err == nil {
		t.Error("Filter on rank-2 tensor should fail")
	}
}

func TestArithmetic(t *testing.T) {
	a := MustFromSlice([]float32{11, 22, 33, 44}, 4)
	b := MustFromSlice([]float32{10, 20, 30, 40}, 4)
	if err := a.SubInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.Data()[2] != 3 {
		t.Errorf("SubInPlace got %v, want 3", a.Data()[2])
	}
	a.Scale(0.5)
	if a.Data()[3] != 2 {
		t.Errorf("Scale got %v, want 2", a.Data()[3])
	}
	mismatch := MustNew(3)
	if err := a.SubInPlace(mismatch); err == nil {
		t.Error("SubInPlace shape mismatch should fail")
	}
}

func TestReductions(t *testing.T) {
	a := MustFromSlice([]float32{-3, 1, 4, 2}, 4)
	if a.Sum() != 4 {
		t.Errorf("Sum = %v, want 4", a.Sum())
	}
	if a.Mean() != 1 {
		t.Errorf("Mean = %v, want 1", a.Mean())
	}
	if a.Min() != -3 {
		t.Errorf("Min = %v, want -3", a.Min())
	}
	if a.Max() != 4 {
		t.Errorf("Max = %v, want 4", a.Max())
	}
	empty := MustNew(0)
	if empty.Mean() != 0 {
		t.Error("Mean of empty should be 0")
	}
}

func TestDotAndNorm(t *testing.T) {
	a := MustFromSlice([]float32{3, 4}, 2)
	if a.L2Norm() != 5 {
		t.Errorf("L2Norm = %v, want 5", a.L2Norm())
	}
	b := MustFromSlice([]float32{1, 2}, 2)
	d, err := a.Dot(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 11 {
		t.Errorf("Dot = %v, want 11", d)
	}
	if _, err := a.Dot(MustNew(3)); err == nil {
		t.Error("Dot length mismatch should fail")
	}
}

func TestComparisons(t *testing.T) {
	a := MustFromSlice([]float32{1, 2}, 2)
	b := MustFromSlice([]float32{1, 2.0005}, 2)
	if a.Equal(b) {
		t.Error("Equal should be exact")
	}
	if !a.AllClose(b, 1e-3) {
		t.Error("AllClose(1e-3) should hold")
	}
	if a.AllClose(b, 1e-6) {
		t.Error("AllClose(1e-6) should fail")
	}
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.0005) > 1e-6 {
		t.Errorf("MaxAbsDiff = %v, want ~0.0005", d)
	}
	if _, err := a.MaxAbsDiff(MustNew(3)); err == nil {
		t.Error("MaxAbsDiff shape mismatch should fail")
	}
	if a.Equal(MustNew(3)) {
		t.Error("Equal with different shapes should be false")
	}
}

func TestApplyMap(t *testing.T) {
	a := MustFromSlice([]float32{1, -2, 3}, 3)
	m := a.Map(func(x float32) float32 {
		if x < 0 {
			return 0
		}
		return x
	})
	if m.Data()[1] != 0 || a.Data()[1] != -2 {
		t.Error("Map should not mutate the receiver")
	}
	a.Apply(func(x float32) float32 { return x * 2 })
	if a.Data()[2] != 6 {
		t.Error("Apply should mutate in place")
	}
}

func TestFills(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := MustNew(1000)
	a.FillUniform(rng, -2, 3)
	lo, hi := a.Min(), a.Max()
	if lo < -2 || hi >= 3 {
		t.Errorf("FillUniform out of range: [%v,%v]", lo, hi)
	}
	a.FillNormal(rng, 10, 0.1)
	if m := a.Mean(); math.Abs(m-10) > 0.05 {
		t.Errorf("FillNormal mean = %v, want ~10", m)
	}
	a.FillHe(rng, 50)
	// stddev should be sqrt(2/50) ~ 0.2
	var ss float64
	for _, x := range a.Data() {
		ss += float64(x) * float64(x)
	}
	std := math.Sqrt(ss / float64(a.Len()))
	if math.Abs(std-0.2) > 0.05 {
		t.Errorf("FillHe stddev = %v, want ~0.2", std)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := MustNew(2, 3, 4)
	orig.FillNormal(rng, 0, 1)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(got) {
		t.Error("round trip changed tensor")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a tensor"))); err == nil {
		t.Error("Read should reject bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("Read should reject empty input")
	}
}

func TestCopyFrom(t *testing.T) {
	a := MustNew(2, 2)
	b := MustFromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err := a.CopyFrom(b); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("CopyFrom did not copy")
	}
	if err := a.CopyFrom(MustNew(3)); err == nil {
		t.Error("CopyFrom shape mismatch should fail")
	}
}

// Property: serialisation round-trips arbitrary contents.
func TestQuickSerializeRoundTrip(t *testing.T) {
	f := func(data []float32) bool {
		tn := MustFromSlice(append([]float32(nil), data...), len(data))
		var buf bytes.Buffer
		if _, err := tn.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		// NaN != NaN, so compare bitwise via Equal only when no NaNs.
		for i, x := range tn.Data() {
			gx := got.Data()[i]
			if math.IsNaN(float64(x)) && math.IsNaN(float64(gx)) {
				continue
			}
			if x != gx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: SubInPlace takes back an addition exactly when the sums are
// exactly representable (use small ints).
func TestQuickAddSubInverse(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		a := make([]float32, len(raw))
		b := make([]float32, len(raw))
		for i, v := range raw {
			a[i] = float32(v)
			b[i] = float32(int(v) / 2)
		}
		ta := MustNew(len(a))
		for i := range a {
			ta.Data()[i] = a[i] + b[i]
		}
		tb := MustFromSlice(b, len(b))
		if err := ta.SubInPlace(tb); err != nil {
			return false
		}
		for i := range a {
			if ta.Data()[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Sum is invariant under Clone and Reshape.
func TestQuickSumInvariants(t *testing.T) {
	f := func(raw []int8) bool {
		data := make([]float32, len(raw))
		for i, v := range raw {
			data[i] = float32(v)
		}
		tn := MustFromSlice(data, len(data))
		s := tn.Sum()
		if tn.Clone().Sum() != s {
			return false
		}
		r, err := tn.Reshape(len(data))
		if err != nil {
			return false
		}
		return r.Sum() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	s := MustNew(2, 3).String()
	if s == "" {
		t.Error("String should not be empty")
	}
}
