package sax

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBreakpoints(t *testing.T) {
	// Canonical table values from the SAX paper.
	bps, err := Breakpoints(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-0.43, 0.43}
	for i, w := range want {
		if math.Abs(bps[i]-w) > 0.01 {
			t.Errorf("alphabet 3 breakpoint %d = %v, want %v", i, bps[i], w)
		}
	}
	bps, _ = Breakpoints(4)
	want = []float64{-0.67, 0, 0.67}
	for i, w := range want {
		if math.Abs(bps[i]-w) > 0.01 {
			t.Errorf("alphabet 4 breakpoint %d = %v, want %v", i, bps[i], w)
		}
	}
	for _, bad := range []int{0, 1, 21, -3} {
		if _, err := Breakpoints(bad); err == nil {
			t.Errorf("Breakpoints(%d) should fail", bad)
		}
	}
}

func TestBreakpointsMonotoneSymmetric(t *testing.T) {
	for a := MinAlphabet; a <= MaxAlphabet; a++ {
		bps, err := Breakpoints(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(bps) != a-1 {
			t.Fatalf("alphabet %d: %d breakpoints", a, len(bps))
		}
		for i := 1; i < len(bps); i++ {
			if bps[i] <= bps[i-1] {
				t.Fatalf("alphabet %d: breakpoints not increasing", a)
			}
		}
		for i := range bps {
			if math.Abs(bps[i]+bps[len(bps)-1-i]) > 1e-6 {
				t.Fatalf("alphabet %d: breakpoints not symmetric", a)
			}
		}
	}
}

func TestZNormalize(t *testing.T) {
	zn := ZNormalize([]float64{1, 2, 3, 4, 5}, 1e-12)
	var mean, ss float64
	for _, x := range zn {
		mean += x
	}
	mean /= float64(len(zn))
	for _, x := range zn {
		ss += (x - mean) * (x - mean)
	}
	std := math.Sqrt(ss / float64(len(zn)))
	if math.Abs(mean) > 1e-12 || math.Abs(std-1) > 1e-12 {
		t.Errorf("znorm mean=%v std=%v", mean, std)
	}
	// Flat series → all zeros.
	flat := ZNormalize([]float64{7, 7, 7}, 1e-12)
	for _, x := range flat {
		if x != 0 {
			t.Error("flat series should normalise to zeros")
		}
	}
}

func TestPAAExactDivision(t *testing.T) {
	out, err := PAA([]float64{1, 3, 5, 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 6 {
		t.Errorf("PAA = %v, want [2 6]", out)
	}
	// w == n is the identity.
	id, _ := PAA([]float64{1, 2, 3}, 3)
	for i, v := range []float64{1, 2, 3} {
		if math.Abs(id[i]-v) > 1e-12 {
			t.Errorf("identity PAA[%d] = %v", i, id[i])
		}
	}
}

func TestPAAFractionalFrames(t *testing.T) {
	// n=5, w=2: weighted frames must preserve the overall mean.
	series := []float64{1, 2, 3, 4, 5}
	out, err := PAA(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	mean := (out[0] + out[1]) / 2
	if math.Abs(mean-3) > 1e-12 {
		t.Errorf("fractional PAA mean = %v, want 3", mean)
	}
	if out[0] >= out[1] {
		t.Error("increasing series should give increasing PAA frames")
	}
}

func TestPAAValidation(t *testing.T) {
	if _, err := PAA(nil, 1); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := PAA([]float64{1}, 0); err == nil {
		t.Error("w=0 should fail")
	}
	if _, err := PAA([]float64{1, 2}, 3); err == nil {
		t.Error("w>n should fail")
	}
}

func TestEncoderBasics(t *testing.T) {
	e, err := NewEncoder(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if e.wordLen != 4 || e.Alphabet() != 4 {
		t.Error("accessors wrong")
	}
	// A ramp must produce a non-decreasing word hitting both extremes.
	series := make([]float64, 64)
	for i := range series {
		series[i] = float64(i)
	}
	w, err := e.Encode(series)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(w.Symbols); i++ {
		if w.Symbols[i] < w.Symbols[i-1] {
			t.Errorf("ramp word not monotone: %v", w.Symbols)
		}
	}
	if w.Symbols[0] != 0 || w.Symbols[3] != 3 {
		t.Errorf("ramp word should span alphabet: %v", w.Symbols)
	}
	if w.String() != "adgj"[:0]+"a"+w.String()[1:] { // sanity: starts with 'a'
		t.Errorf("word string %q should start with 'a'", w.String())
	}
}

func TestEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0, 4); err == nil {
		t.Error("wordLen 0 should fail")
	}
	if _, err := NewEncoder(4, 1); err == nil {
		t.Error("alphabet 1 should fail")
	}
	e, _ := NewEncoder(8, 4)
	if _, err := e.Encode(make([]float64, 4)); err == nil {
		t.Error("series shorter than word should fail")
	}
}

func TestSymbolize(t *testing.T) {
	e, _ := NewEncoder(4, 4)
	// Breakpoints ~ [-0.67, 0, 0.67].
	cases := []struct {
		v    float64
		want int
	}{{-2, 0}, {-0.5, 1}, {0.5, 2}, {2, 3}}
	for _, c := range cases {
		if got := e.Symbolize(c.v); got != c.want {
			t.Errorf("Symbolize(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestWordString(t *testing.T) {
	w := Word{Symbols: []int{0, 1, 2}, Alphabet: 3}
	if w.String() != "abc" {
		t.Errorf("String = %q, want abc", w.String())
	}
	big := Word{Symbols: []int{0, 27}, Alphabet: 28}
	if big.String() == "" {
		t.Error("large alphabet words should still render")
	}
	bad := Word{Symbols: []int{5}, Alphabet: 3}
	if bad.String() == "" {
		t.Error("out-of-range symbols should render as fallback")
	}
}

func TestWordEqual(t *testing.T) {
	a := Word{Symbols: []int{1, 2}, Alphabet: 4}
	if !a.Equal(Word{Symbols: []int{1, 2}, Alphabet: 4}) {
		t.Error("equal words should compare equal")
	}
	if a.Equal(Word{Symbols: []int{1, 3}, Alphabet: 4}) {
		t.Error("different symbols should differ")
	}
	if a.Equal(Word{Symbols: []int{1, 2}, Alphabet: 5}) {
		t.Error("different alphabets should differ")
	}
	if a.Equal(Word{Symbols: []int{1}, Alphabet: 4}) {
		t.Error("different lengths should differ")
	}
}

func TestMinDistAdjacentSymbolsZero(t *testing.T) {
	e, _ := NewEncoder(4, 4)
	a := Word{Symbols: []int{0, 1, 2, 3}, Alphabet: 4}
	b := Word{Symbols: []int{1, 2, 3, 3}, Alphabet: 4}
	d, err := e.minDist(a, b, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("adjacent-symbol MINDIST = %v, want 0", d)
	}
}

func TestMinDistErrors(t *testing.T) {
	e, _ := NewEncoder(4, 4)
	a := Word{Symbols: []int{0, 1, 2, 3}, Alphabet: 4}
	if _, err := e.minDist(a, Word{Symbols: []int{0, 1, 2, 3}, Alphabet: 5}, 0, 64); err == nil {
		t.Error("alphabet mismatch should fail")
	}
	if _, err := e.minDist(a, Word{Symbols: []int{0, 1}, Alphabet: 4}, 0, 64); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := e.minDist(a, a, 0, 2); err == nil {
		t.Error("n below word length should fail")
	}
	bad := Word{Symbols: []int{0, 1, 2, 9}, Alphabet: 4}
	if _, err := e.minDist(a, bad, 0, 64); err == nil {
		t.Error("out-of-range symbol should fail")
	}
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Property: MINDIST lower-bounds the Euclidean distance between the
// z-normalised series (the SAX lower-bounding lemma).
func TestMinDistLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e, err := NewEncoder(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	for trial := 0; trial < 200; trial++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()*3 + math.Sin(float64(i)/5)*float64(trial%7)
			b[i] = rng.NormFloat64() * 2
		}
		wa, err := e.Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := e.Encode(b)
		if err != nil {
			t.Fatal(err)
		}
		md, err := e.minDist(wa, wb, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		ed := euclid(ZNormalize(a, 1e-12), ZNormalize(b, 1e-12))
		if md > ed+1e-9 {
			t.Fatalf("MINDIST %v exceeds Euclidean %v (trial %d)", md, ed, trial)
		}
	}
}

// Property: encoding is shift- and scale-invariant (z-normalisation).
func TestQuickEncodeAffineInvariant(t *testing.T) {
	e, _ := NewEncoder(4, 4)
	rng := rand.New(rand.NewSource(7))
	f := func(scaleRaw, shiftRaw uint8) bool {
		scale := 0.5 + float64(scaleRaw)/64 // strictly positive
		shift := float64(shiftRaw) - 128
		series := make([]float64, 32)
		for i := range series {
			series[i] = rng.NormFloat64()
		}
		scaled := make([]float64, len(series))
		for i, x := range series {
			scaled[i] = x*scale + shift
		}
		w1, err1 := e.Encode(series)
		w2, err2 := e.Encode(scaled)
		if err1 != nil || err2 != nil {
			return false
		}
		return w1.Equal(w2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MINDIST is symmetric and zero on identical words.
func TestQuickMinDistMetricProperties(t *testing.T) {
	e, _ := NewEncoder(6, 5)
	f := func(raw [12]uint8) bool {
		a := Word{Symbols: make([]int, 6), Alphabet: 5}
		b := Word{Symbols: make([]int, 6), Alphabet: 5}
		for i := 0; i < 6; i++ {
			a.Symbols[i] = int(raw[i]) % 5
			b.Symbols[i] = int(raw[i+6]) % 5
		}
		dab, err1 := e.minDist(a, b, 0, 60)
		dba, err2 := e.minDist(b, a, 0, 60)
		daa, err3 := e.minDist(a, a, 0, 60)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return dab == dba && daa == 0 && dab >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeMatchesZNormalizePAA: Encode symbolises exactly the segment
// means of PAA(ZNormalize(series)), for lengths the word length divides and
// lengths it does not, and for flat series below the z-normalisation floor.
func TestEncodeMatchesZNormalizePAA(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, w := range []int{1, 3, 8, 16} {
		enc, err := NewEncoder(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		for n := w; n <= 4*w+5; n++ {
			series := make([]float64, n)
			flat := n%5 == 0
			for i := range series {
				if !flat {
					series[i] = rng.NormFloat64() * 3
				}
			}
			got, err := enc.Encode(series)
			if err != nil {
				t.Fatal(err)
			}
			paa, err := PAA(ZNormalize(series, 1e-12), w)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range paa {
				if got.Symbols[i] != enc.Symbolize(v) {
					t.Fatalf("w=%d n=%d: symbol %d is %d, want %d", w, n, i, got.Symbols[i], enc.Symbolize(v))
				}
			}
		}
	}
}

// TestMinRotationMinDistMatchesRotatedWords: the rotation-invariant MINDIST
// is, bit for bit, the least minDist against every rotation of b written out.
func TestMinRotationMinDistMatchesRotatedWords(t *testing.T) {
	enc, err := NewEncoder(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 50; trial++ {
		a := Word{Symbols: make([]int, 16), Alphabet: 4}
		b := Word{Symbols: make([]int, 16), Alphabet: 4}
		for i := range a.Symbols {
			a.Symbols[i], b.Symbols[i] = rng.Intn(4), rng.Intn(4)
		}
		got, err := enc.MinRotationMinDist(a, b, 128)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Inf(1)
		for r := 0; r < 16; r++ {
			rot := Word{Symbols: append(append([]int(nil), b.Symbols[r:]...), b.Symbols[:r]...), Alphabet: 4}
			d, err := enc.minDist(a, rot, 0, 128)
			if err != nil {
				t.Fatal(err)
			}
			want = math.Min(want, d)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: %v, want %v", trial, got, want)
		}
	}
}
