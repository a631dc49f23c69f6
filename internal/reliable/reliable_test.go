package reliable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/tensor"
)

func TestPlainOpsAlwaysQualify(t *testing.T) {
	ops, err := NewPlain(fault.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ops.Mul(3, 4)
	if v != 12 || !ok {
		t.Errorf("Mul = %v,%v", v, ok)
	}
	v, ok = ops.Add(3, 4)
	if v != 7 || !ok {
		t.Errorf("Add = %v,%v", v, ok)
	}
	// Algorithm 1's qualifier is constant true even when the ALU lies.
	bad, _ := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
	ops, _ = NewPlain(bad)
	if _, ok := ops.Mul(1, 1); !ok {
		t.Error("plain ops must assert true even on faulty hardware — that is their defect")
	}
	if _, err := NewPlain(nil); err == nil {
		t.Error("nil ALU should fail")
	}
}

func TestTemporalDMRDetectsTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Fire exactly one corruption at the first operation: the two
	// executions disagree and the qualifier must be false.
	alu, err := fault.NewOnceAfter(0, fault.BitFlip{Bit: 30}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := NewTemporalDMR(alu)
	if err != nil {
		t.Fatal(err)
	}
	_, ok := ops.Mul(3, 4)
	if ok {
		t.Error("temporal DMR must detect a single transient fault")
	}
	// Subsequent operations are clean again.
	v, ok := ops.Mul(3, 4)
	if v != 12 || !ok {
		t.Errorf("post-fault Mul = %v,%v", v, ok)
	}
	v, ok = ops.Add(1, 2)
	if v != 3 || !ok {
		t.Errorf("Add = %v,%v", v, ok)
	}
	if _, err := NewTemporalDMR(nil); err == nil {
		t.Error("nil ALU should fail")
	}
}

func TestTemporalDMRMissesPermanent(t *testing.T) {
	alu, _ := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
	ops, _ := NewTemporalDMR(alu)
	v, ok := ops.Mul(1, 1)
	if !ok {
		t.Fatal("temporal DMR must NOT detect a deterministic permanent fault (Section II-B)")
	}
	var ideal fault.Ideal
	if v == ideal.Mul(1, 1) {
		t.Skip("stuck bit happened to not alter this product")
	}
}

func TestSpatialDMRDetectsPermanent(t *testing.T) {
	bad, _ := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
	ops, err := NewSpatialDMR(fault.Ideal{}, bad)
	if err != nil {
		t.Fatal(err)
	}
	detected := false
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a, b := rng.Float32(), rng.Float32()
		if _, ok := ops.Mul(a, b); !ok {
			detected = true
			break
		}
	}
	if !detected {
		t.Error("spatial DMR should detect a permanent fault in one PE")
	}
	if _, err := NewSpatialDMR(nil, fault.Ideal{}); err == nil {
		t.Error("nil ALU should fail")
	}
	// Two clean PEs agree.
	ops, _ = NewSpatialDMR(fault.Ideal{}, fault.Ideal{})
	if v, ok := ops.Add(2, 3); v != 5 || !ok {
		t.Errorf("clean spatial DMR Add = %v,%v", v, ok)
	}
}

func TestTMRMasksSingleFaultyPE(t *testing.T) {
	bad, _ := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
	ops, err := NewTMR(fault.Ideal{}, bad, fault.Ideal{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var ideal fault.Ideal
	for i := 0; i < 100; i++ {
		a, b := rng.Float32(), rng.Float32()
		v, ok := ops.Mul(a, b)
		if !ok {
			t.Fatal("TMR with one faulty PE must still reach a majority")
		}
		if v != ideal.Mul(a, b) {
			t.Fatal("TMR majority must be the correct value")
		}
	}
	if _, err := NewTMR(nil, nil, nil); err == nil {
		t.Error("nil ALUs should fail")
	}
}

func TestTMRThreeWayDisagreement(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Three always-corrupting transient ALUs: results almost surely
	// pairwise distinct → no majority → qualifier false.
	mk := func(seed int64) fault.ALU {
		a, err := fault.NewTransient(1, fault.WordRandom{}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ops, _ := NewTMR(mk(10), mk(20), mk(30))
	sawDisagreement := false
	for i := 0; i < 50; i++ {
		a, b := rng.Float32(), rng.Float32()
		if _, ok := ops.Mul(a, b); !ok {
			sawDisagreement = true
			break
		}
	}
	if !sawDisagreement {
		t.Error("three independently random results should disagree at least once in 50 trials")
	}
}

func TestBucketPaperSemantics(t *testing.T) {
	// Default factor 2, ceiling 3: "a stream of correctly executed
	// operations will cancel one, but not two successive errors."
	b := NewDefaultBucket()

	// One error followed by a stream of correct operations: no trip.
	if b.Fail() {
		t.Fatal("single error must not trip the default bucket")
	}
	for i := 0; i < 10; i++ {
		b.OK()
	}
	if b.Tripped() || b.Level() != 0 {
		t.Fatal("stream of correct ops should drain the bucket")
	}

	// Two successive errors: trip.
	if b.Fail() {
		t.Fatal("first of two errors must not trip")
	}
	if !b.Fail() {
		t.Fatal("second successive error must trip (2+2 >= 3)")
	}
	if !b.Tripped() {
		t.Fatal("trip latch should hold")
	}
	b.Reset()
	if b.Tripped() || b.Level() != 0 || b.Errors() != 0 || b.OKs() != 0 || b.Peak() != 0 {
		t.Fatal("reset should clear everything")
	}
}

func TestBucketErrorSpacing(t *testing.T) {
	// With defaults, two errors separated by a single correct op still trip
	// (2 − 1 + 2 = 3 ≥ 3); separated by two correct ops they do not.
	b := NewDefaultBucket()
	b.Fail()
	b.OK()
	if !b.Fail() {
		t.Error("errors separated by one OK should still trip the default bucket")
	}

	b = NewDefaultBucket()
	b.Fail()
	b.OK()
	b.OK()
	if b.Fail() {
		t.Error("errors separated by two OKs should be absorbed")
	}
}

func TestBucketAccounting(t *testing.T) {
	b, err := NewLeakyBucket(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b.Fail()
	}
	b.OK()
	if b.Level() != 4 || b.Peak() != 5 || b.Errors() != 5 || b.OKs() != 1 {
		t.Errorf("bucket accounting wrong: %s", b.String())
	}
	snap := b.Snapshot()
	if snap.Level != 4 || snap.Peak != 5 || snap.Errors != 5 || snap.OKs != 1 || snap.Tripped {
		t.Errorf("snapshot wrong: %+v", snap)
	}
}

func TestBucketValidationAndFailFast(t *testing.T) {
	if _, err := NewLeakyBucket(0, 3); err == nil {
		t.Error("factor 0 should fail")
	}
	if _, err := NewLeakyBucket(2, 0); err == nil {
		t.Error("ceiling 0 should fail")
	}
	ff, _ := NewLeakyBucket(1, 1)
	if !ff.Fail() {
		t.Error("fail-fast bucket must trip on the first error")
	}
	// Zero-value bucket falls back to defaults rather than dividing by zero.
	var zero LeakyBucket
	if zero.Fail() {
		t.Error("zero-value bucket should use default factor/ceiling and not trip on first error")
	}
}

func TestEngineRetriesTransientFault(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// One corruption at the very first operation; temporal DMR detects it,
	// the engine rolls back one operation and succeeds on the retry.
	alu, _ := fault.NewOnceAfter(0, fault.BitFlip{Bit: 30}, rng)
	ops, _ := NewTemporalDMR(alu)
	e, err := NewEngine(ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Mul(3, 4)
	if err != nil {
		t.Fatalf("Mul after transient fault: %v", err)
	}
	if v != 12 {
		t.Errorf("Mul = %v, want 12", v)
	}
	st := e.Stats()
	if st.Ops != 2 || st.Failed != 1 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 2 ops, 1 failed, 1 retry", st)
	}
	if e.Bucket().Tripped() {
		t.Error("bucket must not trip on a single corrected error")
	}
}

func TestEngineTripsOnPersistentFault(t *testing.T) {
	// Rate-1 transient corruption: every DMR pair disagrees, retries keep
	// failing, the default bucket trips on the second successive failure.
	rng := rand.New(rand.NewSource(6))
	alu, _ := fault.NewTransient(1, fault.WordRandom{}, rng)
	ops, _ := NewTemporalDMR(alu)
	e, _ := NewEngine(ops, nil)
	_, err := e.Mul(3, 4)
	if !errors.Is(err, ErrBucketTripped) {
		t.Fatalf("want ErrBucketTripped, got %v", err)
	}
	st := e.Stats()
	if st.Failed != 2 || st.Retries != 1 {
		t.Errorf("stats = %+v, want 2 failures and 1 retry before trip", st)
	}
}

func TestEngineMACAndReset(t *testing.T) {
	ops, _ := NewPlain(fault.Ideal{})
	e, _ := NewEngine(ops, nil)
	v, err := e.MAC(10, 3, 4)
	if err != nil || v != 22 {
		t.Fatalf("MAC = %v, %v", v, err)
	}
	if e.Stats().Ops != 2 {
		t.Errorf("MAC should be two ops, got %d", e.Stats().Ops)
	}
	if _, err := NewEngine(nil, nil); err == nil {
		t.Error("nil ops should fail")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Ops: 1, Failed: 2, Retries: 3}
	a.Add(Stats{Ops: 10, Failed: 20, Retries: 30})
	if a.Ops != 11 || a.Failed != 22 || a.Retries != 33 {
		t.Errorf("Stats.Add = %+v", a)
	}
}

func newTestConv(t *testing.T, seed int64, c, h, w, f, k int) (*tensor.Tensor, *tensor.Tensor, []float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := tensor.MustNew(c, h, w)
	in.FillUniform(rng, -1, 1)
	fl := tensor.MustNew(f, c, k, k)
	fl.FillUniform(rng, -1, 1)
	bias := make([]float32, f)
	for i := range bias {
		bias[i] = rng.Float32()
	}
	return in, fl, bias
}

func TestReliableConvMatchesNative(t *testing.T) {
	in, fl, bias := newTestConv(t, 7, 3, 12, 12, 4, 3)
	for _, spec := range []ConvSpec{
		{Stride: 1, Pad: 0},
		{Stride: 2, Pad: 0},
		{Stride: 1, Pad: 1},
		{Stride: 3, Pad: 2},
	} {
		want, err := NativeConv2D(in, fl, bias, spec)
		if err != nil {
			t.Fatal(err)
		}
		ops, _ := NewPlain(fault.Ideal{})
		e, _ := NewEngine(ops, nil)
		got, err := Conv2D(e, in, fl, bias, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !want.SameShape(got) {
			t.Fatalf("spec %+v: shape %v != %v", spec, want.Shape(), got.Shape())
		}
		if !want.AllClose(got, 1e-5) {
			d, _ := want.MaxAbsDiff(got)
			t.Fatalf("spec %+v: reliable conv diverges from native by %v", spec, d)
		}
	}
}

func TestReliableConvNilBias(t *testing.T) {
	in, fl, _ := newTestConv(t, 8, 2, 8, 8, 3, 3)
	ops, _ := NewPlain(fault.Ideal{})
	e, _ := NewEngine(ops, nil)
	got, err := Conv2D(e, in, fl, nil, ConvSpec{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NativeConv2D(in, fl, nil, ConvSpec{Stride: 1})
	if !want.AllClose(got, 1e-5) {
		t.Error("nil-bias conv mismatch")
	}
}

func TestConvValidation(t *testing.T) {
	in, fl, bias := newTestConv(t, 9, 2, 8, 8, 3, 3)
	ops, _ := NewPlain(fault.Ideal{})
	e, _ := NewEngine(ops, nil)
	if _, err := Conv2D(e, in, fl, bias, ConvSpec{Stride: 0}); err == nil {
		t.Error("stride 0 should fail")
	}
	if _, err := Conv2D(e, in, fl, bias, ConvSpec{Stride: 1, Pad: -1}); err == nil {
		t.Error("negative pad should fail")
	}
	if _, err := Conv2D(e, in, fl, bias[:1], ConvSpec{Stride: 1}); err == nil {
		t.Error("short bias should fail")
	}
	bad := tensor.MustNew(3, 5, 3, 3) // channel mismatch
	if _, err := Conv2D(e, in, bad, nil, ConvSpec{Stride: 1}); err == nil {
		t.Error("channel mismatch should fail")
	}
	tooBig := tensor.MustNew(3, 2, 20, 20) // kernel larger than input
	if _, err := Conv2D(e, in, tooBig, nil, ConvSpec{Stride: 1}); err == nil {
		t.Error("oversized kernel should fail")
	}
	rank2 := tensor.MustNew(8, 8)
	if _, err := Conv2D(e, rank2, fl, nil, ConvSpec{Stride: 1}); err == nil {
		t.Error("rank-2 input should fail")
	}
	if _, err := Conv2D(e, in, rank2, nil, ConvSpec{Stride: 1}); err == nil {
		t.Error("rank-2 filters should fail")
	}
}

func TestReliableConvCorrectsSingleFault(t *testing.T) {
	in, fl, bias := newTestConv(t, 10, 2, 10, 10, 3, 3)
	spec := ConvSpec{Stride: 1, Pad: 1}
	want, err := NativeConv2D(in, fl, bias, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Inject exactly one transient corruption somewhere in the middle of
	// the work: DMR detects it, the engine retries, the output is exact.
	rng := rand.New(rand.NewSource(11))
	alu, _ := fault.NewOnceAfter(5000, fault.BitFlip{Bit: 29}, rng)
	ops, _ := NewTemporalDMR(alu)
	e, _ := NewEngine(ops, nil)
	got, err := Conv2D(e, in, fl, bias, spec)
	if err != nil {
		t.Fatalf("conv with single corrected fault: %v", err)
	}
	if !want.Equal(got) {
		t.Error("single transient fault must be fully corrected by one-op rollback")
	}
	st := e.Stats()
	if st.Retries != 1 || st.Failed != 1 {
		t.Errorf("stats = %+v, want exactly one retry", st)
	}
	if !alu.Fired() {
		t.Error("fault was never injected — test is vacuous")
	}
}

func TestReliableConvAbortsOnPersistentErrors(t *testing.T) {
	in, fl, bias := newTestConv(t, 12, 2, 10, 10, 3, 3)
	rng := rand.New(rand.NewSource(13))
	alu, _ := fault.NewTransient(1, fault.WordRandom{}, rng)
	ops, _ := NewTemporalDMR(alu)
	e, _ := NewEngine(ops, nil)
	_, err := Conv2D(e, in, fl, bias, ConvSpec{Stride: 1})
	if !errors.Is(err, ErrBucketTripped) {
		t.Fatalf("want ErrBucketTripped, got %v", err)
	}
}

func TestMACCount(t *testing.T) {
	in := tensor.MustNew(3, 227, 227)
	fl := tensor.MustNew(96, 3, 11, 11)
	n, err := MACCount(in, fl, ConvSpec{Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 96 × 55 × 55 × 3 × 11 × 11 = 105,415,200 — the first AlexNet layer.
	if n != 105415200 {
		t.Errorf("MACCount = %d, want 105415200", n)
	}
	if _, err := MACCount(in, fl, ConvSpec{Stride: 0}); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestCheckpointedRunCleanFirstAttempt(t *testing.T) {
	out := tensor.MustFromSlice([]float32{1, 2, 3}, 3)
	res, err := CheckpointedRun(func() (*tensor.Tensor, error) { return out.Clone(), nil }, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Rollbacks != 0 || res.OpsExecuted != 200 {
		t.Errorf("res = %+v", res)
	}
	if !res.Output.Equal(out) {
		t.Error("output mismatch")
	}
}

func TestCheckpointedRunRollsBackOnce(t *testing.T) {
	calls := 0
	unit := func() (*tensor.Tensor, error) {
		calls++
		v := float32(1)
		if calls == 1 {
			v = 999 // first execution corrupted → first attempt mismatches
		}
		return tensor.MustFromSlice([]float32{v}, 1), nil
	}
	res, err := CheckpointedRun(unit, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 || res.Rollbacks != 1 || res.OpsExecuted != 40 {
		t.Errorf("res = %+v", res)
	}
}

func TestCheckpointedRunExhausts(t *testing.T) {
	calls := 0
	unit := func() (*tensor.Tensor, error) {
		calls++
		return tensor.MustFromSlice([]float32{float32(calls)}, 1), nil
	}
	_, err := CheckpointedRun(unit, 3, 10)
	if !errors.Is(err, ErrRollbackExhausted) {
		t.Fatalf("want ErrRollbackExhausted, got %v", err)
	}
}

func TestCheckpointedRunValidation(t *testing.T) {
	if _, err := CheckpointedRun(nil, 1, 1); err == nil {
		t.Error("nil unit should fail")
	}
	unit := func() (*tensor.Tensor, error) { return tensor.MustNew(1), nil }
	if _, err := CheckpointedRun(unit, 0, 1); err == nil {
		t.Error("maxAttempts 0 should fail")
	}
	bad := func() (*tensor.Tensor, error) { return nil, errors.New("boom") }
	if _, err := CheckpointedRun(bad, 1, 1); err == nil {
		t.Error("unit error should propagate")
	}
}

// Property: the bucket level is never negative and never exceeds
// peak; the trip latch is monotone.
func TestQuickBucketInvariants(t *testing.T) {
	f := func(events []bool) bool {
		b := NewDefaultBucket()
		wasTripped := false
		for _, fail := range events {
			if fail {
				b.Fail()
			} else {
				b.OK()
			}
			if b.Level() < 0 || b.Level() > b.Peak() {
				return false
			}
			if wasTripped && !b.Tripped() {
				return false // latch must be monotone
			}
			wasTripped = b.Tripped()
		}
		return b.Errors()+b.OKs() == uint64(len(events))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: with an ideal ALU, every operator variant agrees with plain
// arithmetic and always qualifies.
func TestQuickOpsAgreeOnIdealHardware(t *testing.T) {
	plain, _ := NewPlain(fault.Ideal{})
	tdmr, _ := NewTemporalDMR(fault.Ideal{})
	sdmr, _ := NewSpatialDMR(fault.Ideal{}, fault.Ideal{})
	tmr, _ := NewTMR(fault.Ideal{}, fault.Ideal{}, fault.Ideal{})
	f := func(a, b float32) bool {
		want := a * b
		for _, ops := range []Ops{plain, tdmr, sdmr, tmr} {
			v, ok := ops.Mul(a, b)
			if !ok {
				return false
			}
			// NaN-safe comparison: compare bit patterns via equality of
			// both being NaN or equal values.
			if v != want && !(v != v && want != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
