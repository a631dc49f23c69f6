package reliable_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/reliable"
)

// TestNewEngineRowPathForModes: the engines core builds for temporal and
// spatial DMR over the default (ideal) ALUs take Conv2D's row path; plain
// and TMR do not, and neither does any mode over a type that embeds
// fault.Ideal — the dynamic type decides, not the arithmetic.
func TestNewEngineRowPathForModes(t *testing.T) {
	type embeddedIdeal struct{ fault.Ideal }
	for _, mode := range []core.RedundancyMode{core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR} {
		for _, tc := range []struct {
			name    string
			factory core.ALUFactory
			rows    bool
		}{
			{"default", nil, mode == core.ModeTemporalDMR || mode == core.ModeSpatialDMR},
			{"embedded", func() fault.ALU { return embeddedIdeal{} }, false},
		} {
			ops, err := mode.NewOps(tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			e, err := reliable.NewEngine(ops, nil)
			if err != nil {
				t.Fatal(err)
			}
			if e.RowGranular() != tc.rows {
				t.Errorf("%v over %s ALUs: row path %v, want %v", mode, tc.name, e.RowGranular(), tc.rows)
			}
		}
	}
}

// TestEngineMulAddNoAlloc: the per-operation protocol allocates nothing,
// on the first-attempt path and on the retry path alike.
func TestEngineMulAddNoAlloc(t *testing.T) {
	transient, err := fault.NewTransient(0.3, fault.BitFlip{Bit: -1}, rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		alu  fault.ALU
	}{{"ideal", fault.Ideal{}}, {"transient", transient}} {
		for _, mode := range []core.RedundancyMode{core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR} {
			ops, err := mode.NewOps(func() fault.ALU { return tc.alu })
			if err != nil {
				t.Fatal(err)
			}
			// A ceiling no run of failures reaches: retries, never a trip.
			bucket, err := reliable.NewLeakyBucket(1, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			e, err := reliable.NewEngine(ops, bucket)
			if err != nil {
				t.Fatal(err)
			}
			var sink float32
			for name, op := range map[string]func(){
				"Mul": func() { v, _ := e.Mul(1.5, 2.25); sink += v },
				"Add": func() { v, _ := e.Add(1.5, 2.25); sink += v },
			} {
				if n := testing.AllocsPerRun(1000, op); n != 0 {
					t.Errorf("%v over %s ALUs: Engine.%s allocates %v per call", mode, tc.name, name, n)
				}
			}
			if tc.name == "transient" && mode != core.ModePlain && e.Stats().Retries == 0 {
				t.Errorf("%v over %s ALUs: no retry exercised", mode, tc.name)
			}
			_ = sink
		}
	}
}
