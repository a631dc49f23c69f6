package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitFlipFixedBit(t *testing.T) {
	m := BitFlip{Bit: 0}
	if got := m.Corrupt(0, nil); got != 1 {
		t.Errorf("flip bit 0 of 0 = %d, want 1", got)
	}
	if got := m.Corrupt(1, nil); got != 0 {
		t.Errorf("flip bit 0 of 1 = %d, want 0", got)
	}
	sign := BitFlip{Bit: 31}
	x := float32(1.5)
	y := CorruptFloat(sign, x, nil)
	if y != -1.5 {
		t.Errorf("sign flip of 1.5 = %v, want -1.5", y)
	}
}

func TestBitFlipRandomChangesExactlyOneBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := BitFlip{Bit: -1}
	for i := 0; i < 100; i++ {
		in := rng.Uint32()
		out := m.Corrupt(in, rng)
		if popcount(in^out) != 1 {
			t.Fatalf("random bitflip changed %d bits", popcount(in^out))
		}
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestStuckAt(t *testing.T) {
	hi := StuckAt{Bit: 3, Value: true}
	if got := hi.Corrupt(0, nil); got != 8 {
		t.Errorf("stuck-at-1 bit 3 of 0 = %d, want 8", got)
	}
	if got := hi.Corrupt(8, nil); got != 8 {
		t.Errorf("stuck-at-1 idempotence broken: %d", got)
	}
	lo := StuckAt{Bit: 3, Value: false}
	if got := lo.Corrupt(0xFF, nil); got != 0xF7 {
		t.Errorf("stuck-at-0 bit 3 of 0xFF = %#x, want 0xF7", got)
	}
}

func TestWordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := WordRandom{}
	a := m.Corrupt(0, rng)
	b := m.Corrupt(0, rng)
	if a == b {
		t.Log("two random words collided (possible but unlikely); not failing")
	}
}

func TestModelStrings(t *testing.T) {
	for _, m := range []Model{
		BitFlip{Bit: -1}, BitFlip{Bit: 5}, StuckAt{Bit: 2, Value: true},
		WordRandom{},
	} {
		if m.String() == "" {
			t.Errorf("%T has empty String()", m)
		}
	}
}

func TestIdealALU(t *testing.T) {
	var a Ideal
	if a.Mul(3, 4) != 12 || a.Add(3, 4) != 7 {
		t.Error("ideal ALU arithmetic wrong")
	}
}

func TestTransientRateZeroIsIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, err := NewTransient(0, BitFlip{Bit: -1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if a.Mul(2, 3) != 6 {
			t.Fatal("rate-0 transient ALU corrupted a result")
		}
	}
	if a.Ops() != 1000 {
		t.Errorf("ops = %d, want 1000", a.Ops())
	}
}

func TestTransientRateOneAlwaysCorrupts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, err := NewTransient(1, BitFlip{Bit: -1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < 200; i++ {
		if a.Mul(2, 3) != 6 {
			n++
		}
	}
	// Every op is corrupted, and any bit flip of 6 changes its value.
	if n != 200 {
		t.Errorf("corrupted %d of 200, want every op", n)
	}
}

func TestTransientValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewTransient(-0.1, BitFlip{}, rng); err == nil {
		t.Error("negative rate should fail")
	}
	if _, err := NewTransient(1.1, BitFlip{}, rng); err == nil {
		t.Error("rate > 1 should fail")
	}
	if _, err := NewTransient(0.5, nil, rng); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := NewTransient(0.5, BitFlip{}, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestPermanentIsDeterministic(t *testing.T) {
	a, err := NewPermanent(StuckAt{Bit: 20, Value: true})
	if err != nil {
		t.Fatal(err)
	}
	x := a.Mul(1.5, 2.5)
	y := a.Mul(1.5, 2.5)
	if x != y {
		t.Error("permanent fault must repeat identically — temporal redundancy must NOT detect it")
	}
	if a.Ops() != 2 {
		t.Errorf("ops = %d, want 2", a.Ops())
	}
	if _, err := NewPermanent(nil); err == nil {
		t.Error("nil model should fail")
	}
}

func TestPermanentDiffersFromIdealSometimes(t *testing.T) {
	a, _ := NewPermanent(StuckAt{Bit: 22, Value: true})
	var ideal Ideal
	diff := 0
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		x, y := rng.Float32(), rng.Float32()
		if a.Mul(x, y) != ideal.Mul(x, y) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("stuck-at fault never changed any product")
	}
}

func TestOnceAfter(t *testing.T) {
	a, err := NewOnceAfter(3, BitFlip{Bit: 31}, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]float32, 6)
	for i := range results {
		results[i] = a.Mul(2, 3)
	}
	for i, r := range results {
		want := float32(6)
		if i == 3 {
			want = -6 // sign-flipped at the programmed op
		}
		if r != want {
			t.Errorf("op %d = %v, want %v", i, r, want)
		}
	}
	if !a.Fired() {
		t.Error("OnceAfter should report fired")
	}
	if a.Ops() != 6 {
		t.Errorf("ops = %d", a.Ops())
	}
	if _, err := NewOnceAfter(0, nil, nil); err == nil {
		t.Error("nil model should fail")
	}
}

func TestECCMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := []float32{1, 2, 3, 4}
	m := NewECCMemory(orig)
	if m.Len() != 4 {
		t.Fatalf("len = %d", m.Len())
	}

	// Clean read.
	v, ok, err := m.Read(0, orig)
	if err != nil || !ok || v != 1 {
		t.Fatalf("clean read = %v %v %v", v, ok, err)
	}

	// Single upset: corrected on read.
	if err := m.Upset(1, rng); err != nil {
		t.Fatal(err)
	}
	v, ok, err = m.Read(1, orig)
	if err != nil || !ok || v != 2 {
		t.Fatalf("single-upset read = %v %v %v, want corrected 2", v, ok, err)
	}
	if m.Corrected() != 1 {
		t.Errorf("corrected = %d", m.Corrected())
	}

	// Double upset: detected, not corrected.
	if err := m.Upset(2, rng); err != nil {
		t.Fatal(err)
	}
	if err := m.Upset(2, rng); err != nil {
		t.Fatal(err)
	}
	_, ok, err = m.Read(2, orig)
	if err != nil || ok {
		t.Fatalf("double-upset read ok=%v err=%v, want detected", ok, err)
	}
	if m.Detected() != 1 {
		t.Errorf("detected = %d", m.Detected())
	}

	if err := m.Upset(99, rng); err == nil {
		t.Error("out-of-range upset should fail")
	}
	if _, _, err := m.Read(99, orig); err == nil {
		t.Error("out-of-range read should fail")
	}
}

func TestOutcomeClassify(t *testing.T) {
	cases := []struct {
		correct, signalled bool
		want               Outcome
	}{
		{true, false, OutcomeMasked},
		{true, true, OutcomeCorrected},
		{false, true, OutcomeDetected},
		{false, false, OutcomeSDC},
	}
	for _, c := range cases {
		if got := Classify(c.correct, c.signalled); got != c.want {
			t.Errorf("Classify(%v,%v) = %v, want %v", c.correct, c.signalled, got, c.want)
		}
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []Outcome{OutcomeMasked, OutcomeCorrected, OutcomeDetected, OutcomeSDC, Outcome(99)} {
		if o.String() == "" {
			t.Error("empty outcome string")
		}
	}
}

func TestTally(t *testing.T) {
	var tl Tally
	tl.Add(OutcomeMasked)
	tl.Add(OutcomeCorrected)
	tl.Add(OutcomeDetected)
	tl.Add(OutcomeSDC)
	tl.Add(Outcome(0)) // unknown counts as SDC
	if tl.Total() != 5 {
		t.Errorf("total = %d", tl.Total())
	}
	if math.Abs(tl.SDCRate()-0.4) > 1e-12 {
		t.Errorf("sdc rate = %v", tl.SDCRate())
	}
	if math.Abs(tl.Coverage()-0.6) > 1e-12 {
		t.Errorf("coverage = %v", tl.Coverage())
	}
	if tl.String() == "" {
		t.Error("tally string empty")
	}
	var empty Tally
	if empty.SDCRate() != 0 || empty.Coverage() != 1 {
		t.Error("empty tally rates wrong")
	}
}

// TestRunCampaign: each trial's (correct, signalled) is tallied through
// Classify, the first trial error aborts the campaign, and a negative size
// or a nil trial is refused.
func TestRunCampaign(t *testing.T) {
	const n = 64
	tally, err := RunCampaign(n, 1, func(i int) (bool, bool, error) { return i%2 == 0, i%3 == 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	// i%2 == 0 and i%3 == 0 over 0..63: 11 both, 21 correct only, 11
	// signalled only, 21 neither.
	if want := (Tally{Masked: 21, Corrected: 11, Detected: 11, SDC: 21}); tally != want {
		t.Errorf("tally %+v, want %+v", tally, want)
	}

	boom := fmt.Errorf("boom")
	if _, err := RunCampaign(50, 4, func(i int) (bool, bool, error) {
		if i == 10 {
			return false, false, boom
		}
		return true, false, nil
	}); !errors.Is(err, boom) {
		t.Errorf("trial error = %v, want boom", err)
	}
	if _, err := RunCampaign(-1, 2, func(int) (bool, bool, error) { return true, false, nil }); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := RunCampaign(1, 2, nil); err == nil {
		t.Error("nil trial should fail")
	}
	// Zero trials succeed with an empty tally.
	empty, err := RunCampaign(0, 4, func(int) (bool, bool, error) { return true, false, nil })
	if err != nil || empty.Total() != 0 {
		t.Errorf("zero-trial campaign: tally %+v, err %v", empty, err)
	}
}

// TestRunCampaignParallel: trials that derive their outcome from their
// index give the same tally for every worker count.
func TestRunCampaignParallel(t *testing.T) {
	trial := func(i int) (bool, bool, error) {
		return i%2 == 0, i%3 == 0, nil
	}
	want, err := RunCampaign(60, 1, trial)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total() != 60 {
		t.Fatalf("one-worker total = %d", want.Total())
	}
	for _, workers := range []int{0, 2, 4, 7} {
		got, err := RunCampaign(60, workers, trial)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d tally %+v != one worker %+v", workers, got, want)
		}
	}

	// Merge is plain component-wise addition.
	a := Tally{Masked: 1, Corrected: 2, Detected: 3, SDC: 4}
	a.Merge(Tally{Masked: 10, Corrected: 20, Detected: 30, SDC: 40})
	if a != (Tally{Masked: 11, Corrected: 22, Detected: 33, SDC: 44}) {
		t.Errorf("merge = %+v", a)
	}
}

// Property: flipping the same bit twice is the identity.
func TestQuickBitFlipInvolution(t *testing.T) {
	f := func(bits uint32, bit uint8) bool {
		m := BitFlip{Bit: int(bit % 32)}
		return m.Corrupt(m.Corrupt(bits, nil), nil) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: StuckAt is idempotent.
func TestQuickStuckAtIdempotent(t *testing.T) {
	f := func(bits uint32, bit uint8, val bool) bool {
		m := StuckAt{Bit: int(bit % 32), Value: val}
		once := m.Corrupt(bits, nil)
		return m.Corrupt(once, nil) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: CorruptFloat with a random bit flip always changes the bit
// pattern (though possibly not the comparison value, e.g. -0 vs +0).
func TestQuickBitFlipChangesPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(x float32) bool {
		y := CorruptFloat(BitFlip{Bit: -1}, x, rng)
		return math.Float32bits(x) != math.Float32bits(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
