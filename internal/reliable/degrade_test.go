package reliable

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/tensor"
)

func TestDegradingOpsHealthyVoting(t *testing.T) {
	d, err := NewDegradingOps(fault.Ideal{}, fault.Ideal{}, fault.Ideal{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Level() != DegradeTMR {
		t.Fatalf("initial level = %v", d.Level())
	}
	v, ok := d.Mul(3, 4)
	if v != 12 || !ok {
		t.Errorf("Mul = %v,%v", v, ok)
	}
	v, ok = d.Add(3, 4)
	if v != 7 || !ok {
		t.Errorf("Add = %v,%v", v, ok)
	}
}

func TestDegradingOpsValidation(t *testing.T) {
	if _, err := NewDegradingOps(nil, fault.Ideal{}, fault.Ideal{}, 1); err == nil {
		t.Error("nil ALU should fail")
	}
	if _, err := NewDegradingOps(fault.Ideal{}, fault.Ideal{}, fault.Ideal{}, 0); err == nil {
		t.Error("threshold 0 should fail")
	}
}

func TestDegradingOpsExcludesPermanentlyFaultyPE(t *testing.T) {
	bad, err := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDegradingOps(fault.Ideal{}, bad, fault.Ideal{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var ideal fault.Ideal
	rng := rand.New(rand.NewSource(1))
	// While the faulty PE dissents, results stay correct (masked) until it
	// is excluded; afterwards the operator runs as DMR on the survivors.
	for i := 0; i < 200; i++ {
		a, b := rng.Float32(), rng.Float32()
		v, ok := d.Mul(a, b)
		if !ok {
			t.Fatalf("iteration %d: vote failed with one faulty PE", i)
		}
		if v != ideal.Mul(a, b) {
			t.Fatalf("iteration %d: wrong voted value", i)
		}
		if d.Level() == DegradeDMR {
			break
		}
	}
	if d.Level() != DegradeDMR {
		t.Fatalf("faulty PE was never excluded: level %v, dissents %v %v %v",
			d.Level(), d.Dissents(0), d.Dissents(1), d.Dissents(2))
	}
	if d.Healthy(1) {
		t.Error("PE 1 should be excluded")
	}
	if !d.Healthy(0) || !d.Healthy(2) {
		t.Error("healthy PEs should remain included")
	}
	// Reduced mode keeps producing correct, qualified results.
	for i := 0; i < 100; i++ {
		a, b := rng.Float32(), rng.Float32()
		v, ok := d.Add(a, b)
		if !ok || v != ideal.Add(a, b) {
			t.Fatal("post-degradation DMR should agree on healthy PEs")
		}
	}
	if d.Healthy(-1) || d.Healthy(3) {
		t.Error("out-of-range PEs should report unhealthy")
	}
	if d.Dissents(-1) != 0 {
		t.Error("out-of-range dissents should be 0")
	}
}

func TestDegradingOpsSimplexFloor(t *testing.T) {
	// Two permanently faulty PEs with different defects: the operator must
	// degrade all the way to simplex on the healthy PE and keep answering.
	bad1, _ := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
	bad2, _ := fault.NewPermanent(fault.StuckAt{Bit: 21, Value: true})
	d, err := NewDegradingOps(bad1, fault.Ideal{}, bad2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var ideal fault.Ideal
	correctAfterSimplex := 0
	for i := 0; i < 500; i++ {
		a, b := rng.Float32(), rng.Float32()
		v, _ := d.Mul(a, b)
		if d.Level() == DegradeSimplex {
			if v == ideal.Mul(a, b) {
				correctAfterSimplex++
			}
			if correctAfterSimplex > 20 {
				break
			}
		}
	}
	if d.Level() != DegradeSimplex {
		t.Fatalf("did not reach simplex: %v (healthy %v %v %v)",
			d.Level(), d.Healthy(0), d.Healthy(1), d.Healthy(2))
	}
	if d.Healthy(1) != true {
		t.Error("the ideal PE should be the survivor — diagnosis misfired")
	}
	if correctAfterSimplex == 0 {
		t.Error("simplex mode on the healthy PE should produce correct results")
	}
}

func TestDegradingOpsWithEngineConv(t *testing.T) {
	// Full integration: reliable convolution over a degrading operator with
	// one permanently faulty PE — output stays exact, the PE gets excluded
	// mid-convolution, and the engine records zero unrecovered failures.
	rng := rand.New(rand.NewSource(3))
	in := tensor.MustNew(2, 8, 8)
	in.FillUniform(rng, 0, 1)
	filters := tensor.MustNew(2, 2, 3, 3)
	filters.FillUniform(rng, -0.5, 0.5)
	spec := ConvSpec{Stride: 1}
	want, err := NativeConv2D(in, filters, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
	d, err := NewDegradingOps(fault.Ideal{}, fault.Ideal{}, bad, 8)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Conv2D(engine, in, filters, nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Error("degrading TMR should keep the convolution exact")
	}
	if d.Level() != DegradeDMR {
		t.Errorf("level = %v, want dmr after exclusion", d.Level())
	}
	if engine.Bucket().Tripped() {
		t.Error("bucket should not trip while degradation masks the fault")
	}
}

func TestDegradeLevelString(t *testing.T) {
	for _, l := range []DegradeLevel{DegradeTMR, DegradeDMR, DegradeSimplex, DegradeLevel(9)} {
		if l.String() == "" {
			t.Error("empty level string")
		}
	}
}
