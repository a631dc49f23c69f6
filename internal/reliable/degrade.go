package reliable

import (
	"fmt"

	"repro/internal/fault"
)

// This file implements the graceful-degradation strategy Section II-B
// attributes to spatial redundancy: "in the case of spatial redundancy and
// given an error, the platform has the potential to operate in a reduced
// mode allowing the implementation of graceful degradation strategies."
//
// DegradingOps executes as spatial TMR across three PEs. While healthy, a
// single faulty PE is out-voted AND identified (it is the dissenter); after
// a PE accumulates enough dissents it is excluded and the operator degrades
// to spatial DMR on the two survivors. A second exclusion degrades to
// simplex (single-PE) operation, at which point the operator keeps running
// but reports DegradeSimplex so the application can treat further results as
// unqualified — availability is preserved, and the mode is always visible.

// DegradeLevel reports the operator's current redundancy level.
type DegradeLevel int

const (
	// DegradeTMR: all three PEs healthy, full voting.
	DegradeTMR DegradeLevel = iota + 1
	// DegradeDMR: one PE excluded, compare-only on the two survivors.
	DegradeDMR
	// DegradeSimplex: two PEs excluded, unprotected single-PE execution.
	DegradeSimplex
)

// String implements fmt.Stringer.
func (d DegradeLevel) String() string {
	switch d {
	case DegradeTMR:
		return "tmr"
	case DegradeDMR:
		return "dmr"
	case DegradeSimplex:
		return "simplex"
	default:
		return fmt.Sprintf("degrade(%d)", int(d))
	}
}

// DegradingOps is the self-diagnosing, gracefully degrading operator set.
// Not safe for concurrent use.
type DegradingOps struct {
	pes       [3]fault.ALU
	healthy   [3]bool
	dissents  [3]uint32
	threshold uint32
	excluded  int
}

var _ Ops = (*DegradingOps)(nil)

// NewDegradingOps builds the operator over three PEs. threshold is the
// dissent count at which a PE is excluded (≥ 1).
func NewDegradingOps(a, b, c fault.ALU, threshold uint32) (*DegradingOps, error) {
	if a == nil || b == nil || c == nil {
		return nil, fmt.Errorf("reliable: degrading ops need three ALUs")
	}
	if threshold < 1 {
		return nil, fmt.Errorf("reliable: dissent threshold %d must be >= 1", threshold)
	}
	return &DegradingOps{
		pes:       [3]fault.ALU{a, b, c},
		healthy:   [3]bool{true, true, true},
		threshold: threshold,
	}, nil
}

// Level returns the current degradation level.
func (d *DegradingOps) Level() DegradeLevel {
	switch d.excluded {
	case 0:
		return DegradeTMR
	case 1:
		return DegradeDMR
	default:
		return DegradeSimplex
	}
}

// Healthy reports whether PE i is still included.
func (d *DegradingOps) Healthy(i int) bool {
	if i < 0 || i > 2 {
		return false
	}
	return d.healthy[i]
}

// Dissents returns PE i's accumulated dissent count.
func (d *DegradingOps) Dissents(i int) uint32 {
	if i < 0 || i > 2 {
		return 0
	}
	return d.dissents[i]
}

func (d *DegradingOps) exclude(i int) {
	if d.healthy[i] {
		d.healthy[i] = false
		d.excluded++
	}
}

// execute runs op on every healthy PE and applies voting/diagnosis.
func (d *DegradingOps) execute(op func(fault.ALU) float32) (float32, bool) {
	var vals [3]float32
	var idx [3]int
	n := 0
	for i, alu := range d.pes {
		if d.healthy[i] {
			vals[n] = op(alu)
			idx[n] = i
			n++
		}
	}
	switch n {
	case 3:
		// Vote and diagnose the dissenter; a three-way disagreement names
		// none.
		v, ok, dissenter := vote3(vals[0], vals[1], vals[2])
		if dissenter >= 0 {
			d.noteDissent(idx[dissenter])
		}
		return v, ok
	case 2:
		if vals[0] == vals[1] {
			return vals[0], true
		}
		// A mismatch in DMR mode cannot identify the culprit; both PEs
		// accrue suspicion so a persistent offender is eventually excluded.
		d.noteDissent(idx[0])
		d.noteDissent(idx[1])
		return vals[0], false
	default:
		// Simplex: unprotected, qualifier asserts true (like Algorithm 1);
		// the application must consult Level() to see the reduced mode.
		return vals[0], true
	}
}

func (d *DegradingOps) noteDissent(i int) {
	d.dissents[i]++
	if d.dissents[i] >= d.threshold {
		d.exclude(i)
	}
}

// Mul implements Ops.
func (d *DegradingOps) Mul(a, b float32) (float32, bool) {
	return d.execute(func(alu fault.ALU) float32 { return alu.Mul(a, b) })
}

// Add implements Ops.
func (d *DegradingOps) Add(a, b float32) (float32, bool) {
	return d.execute(func(alu fault.ALU) float32 { return alu.Add(a, b) })
}
