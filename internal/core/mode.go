// Package core implements the paper's primary contribution: the hybrid
// (convolutional) neural network that partitions execution into a reliably
// executed dependable part (the DCNN) and a conventional, non-reliable CNN,
// qualifies safety-critical classifications with a deterministic SAX-based
// shape qualifier, and carries an analytic reliability guarantee derived
// from the redundancy mode and the leaky-bucket parameters.
package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/reliable"
)

// RedundancyMode selects how the DCNN's overloaded operators execute.
type RedundancyMode int

const (
	// ModePlain is Algorithm 1: single execution, qualifier constant true.
	ModePlain RedundancyMode = iota + 1
	// ModeTemporalDMR is Algorithm 2: execute twice on one PE, compare.
	ModeTemporalDMR
	// ModeSpatialDMR executes on two PEs and compares.
	ModeSpatialDMR
	// ModeTMR executes on three PEs and votes.
	ModeTMR
)

// modeSpec is everything a redundancy mode is: the name the CLI flag and the
// model file use, how many processing elements it occupies and how its
// operators are built over PEs drawn from a factory.
type modeSpec struct {
	name   string
	pes    int
	newOps func(ALUFactory) (reliable.Ops, error)
}

// modes is the one table of redundancy modes, indexed by RedundancyMode.
var modes = [...]modeSpec{
	ModePlain: {"plain", 1, func(f ALUFactory) (reliable.Ops, error) {
		return reliable.NewPlain(f())
	}},
	ModeTemporalDMR: {"temporal-dmr", 1, func(f ALUFactory) (reliable.Ops, error) {
		return reliable.NewTemporalDMR(f())
	}},
	ModeSpatialDMR: {"spatial-dmr", 2, func(f ALUFactory) (reliable.Ops, error) {
		return reliable.NewSpatialDMR(f(), f())
	}},
	ModeTMR: {"tmr", 3, func(f ALUFactory) (reliable.Ops, error) {
		return reliable.NewTMR(f(), f(), f())
	}},
}

// spec returns the mode's table entry, or an error for an unknown mode.
func (m RedundancyMode) spec() (modeSpec, error) {
	if m < ModePlain || int(m) >= len(modes) {
		return modeSpec{}, fmt.Errorf("core: unknown redundancy mode %d", int(m))
	}
	return modes[m], nil
}

// ParseMode returns the redundancy mode whose String is name.
func ParseMode(name string) (RedundancyMode, error) {
	for m := ModePlain; int(m) < len(modes); m++ {
		if modes[m].name == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown redundancy mode %q", name)
}

// String implements fmt.Stringer.
func (m RedundancyMode) String() string {
	s, err := m.spec()
	if err != nil {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return s.name
}

// PEs returns how many processing elements the mode occupies.
func (m RedundancyMode) PEs() (int, error) {
	s, err := m.spec()
	return s.pes, err
}

// ALUFactory produces the processing elements the DCNN executes on. The
// default (nil) factory yields ideal fault-free ALUs; fault campaigns supply
// factories producing injected ALUs.
type ALUFactory func() fault.ALU

func defaultALUFactory() fault.ALU { return fault.Ideal{} }

// NewOps builds the overloaded operators for the mode, drawing PEs() PEs
// from the factory.
func (m RedundancyMode) NewOps(factory ALUFactory) (reliable.Ops, error) {
	s, err := m.spec()
	if err != nil {
		return nil, err
	}
	if factory == nil {
		factory = defaultALUFactory
	}
	return s.newOps(factory)
}
