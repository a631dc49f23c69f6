// Package reliable implements the paper's reliable-execution machinery:
//
//   - the overloaded arithmetic operators of Algorithms 1 and 2 — every
//     multiply/accumulate returns a value AND a qualifier saying whether the
//     operation is asserted to have executed correctly;
//   - temporal and spatial dual-modular redundancy (DMR) and triple-modular
//     redundancy (TMR) variants of those operators;
//   - the leaky-bucket error counter of Algorithm 3;
//   - the reliable convolution kernel of Algorithm 3, with an
//     operation-granularity rollback distance of exactly one operation. On
//     DMR over fault-free ALUs detection is per output row and replay per
//     operation, only on disagreement: each row runs twice and is compared
//     once, and a row whose copies differ is recomputed operation by
//     operation through the retry/bucket protocol, which every other
//     operator set (plain, TMR, degrading, soft-float, injecting ALUs) uses
//     for every operation; and
//   - layer- and network-granularity checkpoint/rollback executors used by
//     the rollback-distance ablation.
//
// Arithmetic is delegated to fault.ALU implementations so the same code path
// runs fault-free (benchmarks, Table 1) and under injection (campaigns).
package reliable

import (
	"fmt"

	"repro/internal/fault"
)

// Ops is the overloaded-operator interface of Section IV: "the basic
// operators return a value ... [and] a qualifier indicating whether the
// operation was carried out correctly or not."
type Ops interface {
	// Mul returns a*b and a qualifier.
	Mul(a, b float32) (float32, bool)
	// Add returns a+b and a qualifier.
	Add(a, b float32) (float32, bool)
	// Name identifies the operator variant in reports and benchmarks.
	Name() string
}

// Plain is Algorithm 1: a single, non-redundant execution whose qualifier is
// the predefined constant true. It establishes baseline performance and — by
// construction — detects nothing.
type Plain struct {
	alu fault.ALU
}

var _ Ops = (*Plain)(nil)

// NewPlain returns Algorithm 1 operators executing on alu.
func NewPlain(alu fault.ALU) (*Plain, error) {
	if alu == nil {
		return nil, fmt.Errorf("reliable: plain ops need an ALU")
	}
	return &Plain{alu: alu}, nil
}

// Mul implements Ops (Algorithm 1).
func (p *Plain) Mul(a, b float32) (float32, bool) { return p.alu.Mul(a, b), true }

// Add implements Ops (Algorithm 1).
func (p *Plain) Add(a, b float32) (float32, bool) { return p.alu.Add(a, b), true }

// Name implements Ops.
func (p *Plain) Name() string { return "plain" }

// TemporalDMR is Algorithm 2: the same operation is executed twice in series
// on the SAME ALU and the qualifier is set to true iff the two results agree.
// Under the SEU assumption (independent transient faults) this detects any
// single fault; a permanent ALU defect produces two identical wrong results
// and escapes detection — the limitation Section II-B attributes to temporal
// redundancy.
type TemporalDMR struct {
	alu fault.ALU
}

var _ Ops = (*TemporalDMR)(nil)

// NewTemporalDMR returns Algorithm 2 operators executing twice on alu.
func NewTemporalDMR(alu fault.ALU) (*TemporalDMR, error) {
	if alu == nil {
		return nil, fmt.Errorf("reliable: temporal DMR ops need an ALU")
	}
	return &TemporalDMR{alu: alu}, nil
}

// Mul implements Ops (Algorithm 2).
func (t *TemporalDMR) Mul(a, b float32) (float32, bool) {
	p1 := t.alu.Mul(a, b)
	p2 := t.alu.Mul(a, b)
	return p1, p1 == p2
}

// Add implements Ops (Algorithm 2).
func (t *TemporalDMR) Add(a, b float32) (float32, bool) {
	s1 := t.alu.Add(a, b)
	s2 := t.alu.Add(a, b)
	return s1, s1 == s2
}

// Name implements Ops.
func (t *TemporalDMR) Name() string { return "temporal-dmr" }

// SpatialDMR executes each operation on two DIFFERENT ALUs (two processing
// elements of the compute unit) and compares. Unlike temporal DMR it also
// detects permanent single-PE defects, at the cost of occupying two PEs;
// execution can proceed in parallel on real hardware (Section II-B), so its
// latency advantage is not modelled here — only its detection behaviour.
type SpatialDMR struct {
	a, b fault.ALU
}

var _ Ops = (*SpatialDMR)(nil)

// NewSpatialDMR returns operators executing on the PE pair (a, b).
func NewSpatialDMR(a, b fault.ALU) (*SpatialDMR, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("reliable: spatial DMR ops need two ALUs")
	}
	return &SpatialDMR{a: a, b: b}, nil
}

// Mul implements Ops.
func (s *SpatialDMR) Mul(a, b float32) (float32, bool) {
	p1 := s.a.Mul(a, b)
	p2 := s.b.Mul(a, b)
	return p1, p1 == p2
}

// Add implements Ops.
func (s *SpatialDMR) Add(a, b float32) (float32, bool) {
	s1 := s.a.Add(a, b)
	s2 := s.b.Add(a, b)
	return s1, s1 == s2
}

// Name implements Ops.
func (s *SpatialDMR) Name() string { return "spatial-dmr" }

// TMR executes each operation on three ALUs and majority-votes: "in the case
// of triple modular redundancy, agreed upon by execution of the algorithm
// three times and voting on the result" (Section IV). A single faulty PE is
// masked (qualifier true, correct value); only a two-out-of-three corruption
// leaves the vote inconclusive, in which case the qualifier is false.
type TMR struct {
	a, b, c fault.ALU
}

var _ Ops = (*TMR)(nil)

// NewTMR returns voting operators over the PE triple (a, b, c). Passing the
// same ALU three times yields temporal TMR.
func NewTMR(a, b, c fault.ALU) (*TMR, error) {
	if a == nil || b == nil || c == nil {
		return nil, fmt.Errorf("reliable: TMR ops need three ALUs")
	}
	return &TMR{a: a, b: b, c: c}, nil
}

func vote(x, y, z float32) (float32, bool) {
	switch {
	case x == y || x == z:
		return x, true
	case y == z:
		return y, true
	default:
		// Three-way disagreement: no majority. Return the first result with
		// a false qualifier so Algorithm 3's retry path takes over.
		return x, false
	}
}

// Mul implements Ops.
func (t *TMR) Mul(a, b float32) (float32, bool) {
	return vote(t.a.Mul(a, b), t.b.Mul(a, b), t.c.Mul(a, b))
}

// Add implements Ops.
func (t *TMR) Add(a, b float32) (float32, bool) {
	return vote(t.a.Add(a, b), t.b.Add(a, b), t.c.Add(a, b))
}

// Name implements Ops.
func (t *TMR) Name() string { return "tmr" }
