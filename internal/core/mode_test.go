package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
)

// The oracle operator sets: the four redundancy modes written out one type
// each, as Algorithms 1 and 2 and Section II-B describe them. Every mode's
// operators must call the same ALUs in the same order and return the same
// value and qualifier as these.

type oraclePlain struct{ alu fault.ALU }

func (o oraclePlain) Mul(a, b float32) (float32, bool) { return o.alu.Mul(a, b), true }
func (o oraclePlain) Add(a, b float32) (float32, bool) { return o.alu.Add(a, b), true }

type oracleTemporalDMR struct{ alu fault.ALU }

func (o oracleTemporalDMR) Mul(a, b float32) (float32, bool) {
	p1 := o.alu.Mul(a, b)
	p2 := o.alu.Mul(a, b)
	return p1, p1 == p2
}

func (o oracleTemporalDMR) Add(a, b float32) (float32, bool) {
	s1 := o.alu.Add(a, b)
	s2 := o.alu.Add(a, b)
	return s1, s1 == s2
}

type oracleSpatialDMR struct{ a, b fault.ALU }

func (o oracleSpatialDMR) Mul(a, b float32) (float32, bool) {
	p1 := o.a.Mul(a, b)
	p2 := o.b.Mul(a, b)
	return p1, p1 == p2
}

func (o oracleSpatialDMR) Add(a, b float32) (float32, bool) {
	s1 := o.a.Add(a, b)
	s2 := o.b.Add(a, b)
	return s1, s1 == s2
}

type oracleTMR struct{ a, b, c fault.ALU }

func oracleVote(x, y, z float32) (float32, bool) {
	switch {
	case x == y || x == z:
		return x, true
	case y == z:
		return y, true
	default:
		return x, false
	}
}

func (o oracleTMR) Mul(a, b float32) (float32, bool) {
	return oracleVote(o.a.Mul(a, b), o.b.Mul(a, b), o.c.Mul(a, b))
}

func (o oracleTMR) Add(a, b float32) (float32, bool) {
	return oracleVote(o.a.Add(a, b), o.b.Add(a, b), o.c.Add(a, b))
}

// oracleOps is the operator pair every oracle type implements.
type oracleOps interface {
	Mul(a, b float32) (float32, bool)
	Add(a, b float32) (float32, bool)
}

func newOracle(m RedundancyMode, f ALUFactory) oracleOps {
	switch m {
	case ModePlain:
		return oraclePlain{f()}
	case ModeTemporalDMR:
		return oracleTemporalDMR{f()}
	case ModeSpatialDMR:
		return oracleSpatialDMR{f(), f()}
	case ModeTMR:
		return oracleTMR{f(), f(), f()}
	}
	return nil
}

// countingALU counts the operations it is asked for and appends each call
// to a log shared by all PEs of one operator set, so the test sees which PE
// executed how many times and in which order.
type countingALU struct {
	inner      fault.ALU
	id         int
	log        *[]int
	muls, adds int
}

func (c *countingALU) Mul(a, b float32) float32 {
	c.muls++
	*c.log = append(*c.log, 2*c.id)
	return c.inner.Mul(a, b)
}

func (c *countingALU) Add(a, b float32) float32 {
	c.adds++
	*c.log = append(*c.log, 2*c.id+1)
	return c.inner.Add(a, b)
}

// nanALU returns NaN on a seeded share of its operations.
type nanALU struct{ rng *rand.Rand }

func (n nanALU) result(v float32) float32 {
	if n.rng.Intn(4) == 0 {
		return float32(math.NaN())
	}
	return v
}

func (n nanALU) Mul(a, b float32) float32 { return n.result(a * b) }
func (n nanALU) Add(a, b float32) float32 { return n.result(a + b) }

// TestModeOpsMatchOracle: for every redundancy mode over transient,
// permanent and NaN-producing ALUs, NewOps yields the oracle's value bits
// and qualifier on every operation and draws as many PEs, each executing as
// many multiplies and adds, in the same order.
func TestModeOpsMatchOracle(t *testing.T) {
	kinds := []struct {
		name string
		alu  func(seed int64) fault.ALU
	}{
		{"transient", func(seed int64) fault.ALU {
			a, err := fault.NewTransient(0.2, fault.BitFlip{Bit: -1}, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"permanent", func(seed int64) fault.ALU {
			// Every other PE is defective, so spatial DMR and TMR see a
			// faulty PE next to a healthy one.
			if seed%2 == 1 {
				return fault.Ideal{}
			}
			a, err := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"nan", func(seed int64) fault.ALU { return nanALU{rand.New(rand.NewSource(seed))} }},
	}
	for _, mode := range []RedundancyMode{ModePlain, ModeTemporalDMR, ModeSpatialDMR, ModeTMR} {
		for _, kind := range kinds {
			what := fmt.Sprintf("%v/%s", mode, kind.name)
			// Two identically seeded PE sequences, one per side.
			factory := func(pes *[]*countingALU, log *[]int) ALUFactory {
				return func() fault.ALU {
					id := len(*pes)
					c := &countingALU{inner: kind.alu(int64(id) + 100), id: id, log: log}
					*pes = append(*pes, c)
					return c
				}
			}
			var gotPEs, wantPEs []*countingALU
			var gotLog, wantLog []int
			got, err := mode.NewOps(factory(&gotPEs, &gotLog))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			want := newOracle(mode, factory(&wantPEs, &wantLog))
			rng := rand.New(rand.NewSource(25))
			for i := 0; i < 2000; i++ {
				a, b := rng.Float32()*4-2, rng.Float32()*4-2
				switch i % 97 {
				case 13:
					a = float32(math.NaN())
				case 41:
					b = float32(math.Inf(1))
				}
				op, gv, gok, wv, wok := "Mul", float32(0), false, float32(0), false
				if i%2 == 0 {
					gv, gok = got.Mul(a, b)
					wv, wok = want.Mul(a, b)
				} else {
					op = "Add"
					gv, gok = got.Add(a, b)
					wv, wok = want.Add(a, b)
				}
				if math.Float32bits(gv) != math.Float32bits(wv) || gok != wok {
					t.Fatalf("%s: op %d %s(%v, %v) = (%v, %v), oracle (%v, %v)",
						what, i, op, a, b, gv, gok, wv, wok)
				}
			}
			if len(gotPEs) != len(wantPEs) {
				t.Fatalf("%s: %d PEs drawn, oracle %d", what, len(gotPEs), len(wantPEs))
			}
			pes, err := mode.PEs()
			if err != nil || pes != len(wantPEs) {
				t.Fatalf("%s: PEs() = %d, %v; oracle drew %d", what, pes, err, len(wantPEs))
			}
			for i := range gotPEs {
				g, w := gotPEs[i], wantPEs[i]
				if g.muls != w.muls || g.adds != w.adds {
					t.Fatalf("%s: PE %d ran %d muls %d adds, oracle %d muls %d adds",
						what, i, g.muls, g.adds, w.muls, w.adds)
				}
			}
			if !slices.Equal(gotLog, wantLog) {
				t.Fatalf("%s: PEs called in another order than the oracle's", what)
			}
		}
	}
}

// TestModeNamesRoundTrip: every mode's name parses back to the mode, and
// names that are not a mode's are refused.
func TestModeNamesRoundTrip(t *testing.T) {
	want := map[RedundancyMode]string{
		ModePlain: "plain", ModeTemporalDMR: "temporal-dmr",
		ModeSpatialDMR: "spatial-dmr", ModeTMR: "tmr",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), name)
		}
		got, err := ParseMode(name)
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, m)
		}
	}
	for _, bad := range []string{"", "TMR", "dmr", RedundancyMode(0).String(), RedundancyMode(5).String()} {
		if m, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) = %v, want an error", bad, m)
		}
	}
}
