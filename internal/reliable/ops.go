// Package reliable implements the paper's reliable-execution machinery:
//
//   - the overloaded arithmetic operators of Algorithms 1 and 2 — every
//     multiply/accumulate returns a value AND a qualifier saying whether the
//     operation is asserted to have executed correctly;
//   - the redundant variants of those operators, which differ only in the
//     processing elements each operation runs on and how their results must
//     agree: dual-modular redundancy (DMR) runs two executions and compares —
//     temporal DMR is DMR with the same PE twice, spatial DMR two different
//     PEs — and triple-modular redundancy (TMR) runs three and votes;
//   - the leaky-bucket error counter of Algorithm 3;
//   - the reliable convolution kernel of Algorithm 3, with an
//     operation-granularity rollback distance of exactly one operation. On
//     DMR over fault-free ALUs detection is per output row and replay per
//     operation, only on disagreement: each row runs twice and is compared
//     once, and a row whose copies differ is recomputed operation by
//     operation through the retry/bucket protocol, which every other
//     operator set (plain, TMR, soft-float, injecting ALUs) uses
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

// DMR is dual-modular redundancy: each operation executes on processing
// element a, then on b, and the qualifier is true iff the two results agree.
// The two DMR modes of the paper differ only in the PEs:
//
//   - temporal DMR (Algorithm 2, NewTemporalDMR) runs the SAME PE twice in
//     series. Under the SEU assumption (independent transient faults) this
//     detects any single fault; a permanent defect produces two identical
//     wrong results and escapes — the limitation Section II-B attributes to
//     temporal redundancy.
//   - spatial DMR (NewSpatialDMR) runs two DIFFERENT PEs, so it also detects
//     a permanent single-PE defect, at the cost of occupying two PEs. On real
//     hardware the two execute in parallel (Section II-B); that latency
//     advantage is not modelled here — only the detection behaviour.
type DMR struct {
	a, b fault.ALU
}

var _ Ops = (*DMR)(nil)

// NewTemporalDMR returns Algorithm 2 operators executing twice on alu.
func NewTemporalDMR(alu fault.ALU) (*DMR, error) {
	if alu == nil {
		return nil, fmt.Errorf("reliable: temporal DMR ops need an ALU")
	}
	return &DMR{a: alu, b: alu}, nil
}

// NewSpatialDMR returns operators executing on the PE pair (a, b).
func NewSpatialDMR(a, b fault.ALU) (*DMR, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("reliable: spatial DMR ops need two ALUs")
	}
	return &DMR{a: a, b: b}, nil
}

// Mul implements Ops.
func (d *DMR) Mul(a, b float32) (float32, bool) {
	p1 := d.a.Mul(a, b)
	p2 := d.b.Mul(a, b)
	return p1, p1 == p2
}

// Add implements Ops.
func (d *DMR) Add(a, b float32) (float32, bool) {
	s1 := d.a.Add(a, b)
	s2 := d.b.Add(a, b)
	return s1, s1 == s2
}

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

// vote3 majority-votes three results: the majority value and true, or x
// and false when no two agree.
func vote3(x, y, z float32) (float32, bool) {
	switch {
	case x == y || x == z:
		return x, true
	case y == z:
		return y, true
	default:
		return x, false
	}
}

// Mul implements Ops.
func (t *TMR) Mul(a, b float32) (float32, bool) {
	return vote3(t.a.Mul(a, b), t.b.Mul(a, b), t.c.Mul(a, b))
}

// Add implements Ops.
func (t *TMR) Add(a, b float32) (float32, bool) {
	return vote3(t.a.Add(a, b), t.b.Add(a, b), t.c.Add(a, b))
}
