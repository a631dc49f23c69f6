package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// CoverageConfig sizes the redundancy-coverage ablation (Ablation A).
type CoverageConfig struct {
	// Trials per (mode, scenario) cell (default 30).
	Trials int
	// TransientRate is the per-operation SEU probability for the
	// transient scenario (default 5e-4).
	TransientRate float64
	// Seed drives everything.
	Seed int64
}

func (c CoverageConfig) normalize() CoverageConfig {
	if c.Trials == 0 {
		c.Trials = 30
	}
	if c.TransientRate == 0 {
		c.TransientRate = 5e-4
	}
	return c
}

// CoverageRow is one (mode, fault scenario) cell.
type CoverageRow struct {
	Mode     core.RedundancyMode
	Scenario string
	Tally    fault.Tally
}

// convWorkload is the small convolution both ablations run per trial,
// with its fault-free answer.
type convWorkload struct {
	in, filters, oracle *tensor.Tensor
	spec                reliable.ConvSpec
}

func newConvWorkload(seed int64) (convWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := convWorkload{in: tensor.MustNew(3, 8, 8), filters: tensor.MustNew(2, 3, 3, 3), spec: reliable.ConvSpec{Stride: 1}}
	w.in.FillUniform(rng, 0, 1)
	w.filters.FillUniform(rng, -0.5, 0.5)
	var err error
	w.oracle, err = reliable.NativeConv2D(w.in, w.filters, nil, w.spec)
	return w, err
}

// run executes the workload once on an engine over ops and compares it
// with the oracle: a tripped bucket is a detected error, a retry a
// signalled one. It also returns the operation attempts the engine made.
func (w convWorkload) run(ops reliable.Ops) (correct, signalled bool, attempts uint64, err error) {
	engine, err := reliable.NewEngine(ops, nil)
	if err != nil {
		return false, false, 0, err
	}
	out, err := reliable.Conv2D(engine, w.in, w.filters, nil, w.spec)
	st := engine.Stats()
	if errors.Is(err, reliable.ErrBucketTripped) {
		return false, true, st.Ops, nil // detected unrecoverable
	}
	if err != nil {
		return false, false, st.Ops, err
	}
	return out.Equal(w.oracle), st.Retries > 0, st.Ops, nil
}

// RunRedundancyCoverage measures the masked/corrected/detected/SDC split of
// every redundancy mode under transient SEUs and under a permanent single-PE
// defect — the quantitative version of Section II's qualitative argument
// that temporal redundancy handles transients but is defeated by permanent
// faults, which spatial redundancy detects and TMR masks. Trial i of cell c
// (modes × scenarios, in order) seeds its ALUs from Seed + 1 + c·Trials + i.
func RunRedundancyCoverage(cfg CoverageConfig) ([]CoverageRow, error) {
	cfg = cfg.normalize()
	w, err := newConvWorkload(cfg.Seed)
	if err != nil {
		return nil, err
	}
	modes := []core.RedundancyMode{
		core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR,
	}
	scenarios := []string{"transient", "permanent-1pe"}
	var rows []CoverageRow
	for _, mode := range modes {
		for _, scenario := range scenarios {
			first := cfg.Seed + 1 + int64(len(rows)*cfg.Trials)
			tally, err := fault.RunCampaign(cfg.Trials, 0, func(i int) (bool, bool, error) {
				ops, err := mode.NewOps(coverageFactory(scenario, cfg.TransientRate, first+int64(i)))
				if err != nil {
					return false, false, err
				}
				correct, signalled, _, err := w.run(ops)
				return correct, signalled, err
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: coverage %v/%s: %w", mode, scenario, err)
			}
			rows = append(rows, CoverageRow{Mode: mode, Scenario: scenario, Tally: tally})
		}
	}
	return rows, nil
}

// coverageFactory returns an ALU factory for the scenario, "transient" or
// "permanent-1pe". For the permanent scenario only the FIRST PE drawn is
// defective, so spatial redundancy pairs a broken PE with a healthy one.
func coverageFactory(scenario string, rate float64, seed int64) core.ALUFactory {
	n := 0
	return func() fault.ALU {
		n++
		if scenario == "transient" {
			alu, err := fault.NewTransient(rate, fault.BitFlip{Bit: -1},
				rand.New(rand.NewSource(seed+int64(n)*101)))
			if err != nil {
				panic(err) // unreachable: parameters are valid
			}
			return alu
		}
		if n > 1 {
			return fault.Ideal{}
		}
		alu, err := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
		if err != nil {
			panic(err)
		}
		return alu
	}
}

// CoverageMarkdown renders the coverage rows.
func CoverageMarkdown(rows []CoverageRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Mode.String(), r.Scenario,
			fmt.Sprintf("%d", r.Tally.Masked),
			fmt.Sprintf("%d", r.Tally.Corrected),
			fmt.Sprintf("%d", r.Tally.Detected),
			fmt.Sprintf("%d", r.Tally.SDC),
			fmt.Sprintf("%.3f", r.Tally.Coverage()),
		})
	}
	return Markdown([]string{"Mode", "Fault", "Masked", "Corrected", "Detected", "SDC", "Coverage"}, out)
}

// RollbackConfig sizes the rollback-distance ablation (Ablation B).
type RollbackConfig struct {
	// Trials per (strategy, rate) cell (default 20).
	Trials int
	// Rates are the transient fault rates to sweep
	// (default 1e-5, 1e-4, 1e-3).
	Rates []float64
	// MaxUnitAttempts bounds unit-level rollback (default 4).
	MaxUnitAttempts int
	// Seed drives everything.
	Seed int64
}

func (c RollbackConfig) normalize() RollbackConfig {
	if c.Trials == 0 {
		c.Trials = 20
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{1e-5, 1e-4, 1e-3}
	}
	if c.MaxUnitAttempts == 0 {
		c.MaxUnitAttempts = 4
	}
	return c
}

// RollbackRow is one (strategy, rate) cell.
type RollbackRow struct {
	Strategy string
	Rate     float64
	Tally    fault.Tally
	// WorkFactor is the mean executed work relative to one unprotected
	// pass over the unit (1.0 = no overhead).
	WorkFactor float64
}

// RunRollbackAblation compares rollback distances under transient faults:
//
//   - "op" — the paper's one-operation rollback (Algorithm 3 with temporal
//     DMR): a detected error re-executes ONE multiply or add;
//   - "unit" — classical checkpointing: the whole convolution executes
//     twice, mismatch discards and re-executes the whole unit;
//   - "none" — unprotected single execution.
//
// It quantifies Section II-E: with hard deadlines the rollback distance of
// one operation bounds the worst-case recovery work, while unit-level
// rollback multiplies it and eventually exhausts its attempt budget.
// Trial i of cell c (rates × the three strategies, in order) seeds its ALU
// from Seed + 7 000 001 + c·Trials + i.
func RunRollbackAblation(cfg RollbackConfig) ([]RollbackRow, error) {
	cfg = cfg.normalize()
	w, err := newConvWorkload(cfg.Seed)
	if err != nil {
		return nil, err
	}
	macs, err := reliable.MACCount(w.in, w.filters, w.spec)
	if err != nil {
		return nil, err
	}
	opsPerUnit := 2 * macs // one mul + one add per MAC
	// strategies run one trial on a fault-injecting ALU and report its
	// outcome and its work relative to one unprotected pass.
	strategies := []struct {
		name  string
		trial func(alu fault.ALU) (correct, signalled bool, work float64, err error)
	}{
		{"op", func(alu fault.ALU) (bool, bool, float64, error) {
			ops, err := reliable.NewTemporalDMR(alu)
			if err != nil {
				return false, false, 0, err
			}
			correct, signalled, attempts, err := w.run(ops)
			// Each attempt executes the operation twice under DMR.
			return correct, signalled, 2 * float64(attempts) / float64(opsPerUnit), err
		}},
		{"unit", func(alu fault.ALU) (bool, bool, float64, error) {
			plain, err := reliable.NewPlain(alu)
			if err != nil {
				return false, false, 0, err
			}
			unit := func() (*tensor.Tensor, error) {
				engine, err := reliable.NewEngine(plain, nil)
				if err != nil {
					return nil, err
				}
				return reliable.Conv2D(engine, w.in, w.filters, nil, w.spec)
			}
			res, err := reliable.CheckpointedRun(unit, cfg.MaxUnitAttempts, opsPerUnit)
			work := float64(res.OpsExecuted) / float64(opsPerUnit)
			if errors.Is(err, reliable.ErrRollbackExhausted) {
				return false, true, work, nil
			}
			if err != nil {
				return false, false, work, err
			}
			return res.Output.Equal(w.oracle), res.Rollbacks > 0, work, nil
		}},
		{"none", func(alu fault.ALU) (bool, bool, float64, error) {
			plain, err := reliable.NewPlain(alu)
			if err != nil {
				return false, false, 0, err
			}
			correct, signalled, _, err := w.run(plain)
			return correct, signalled, 1, err
		}},
	}
	var rows []RollbackRow
	for _, rate := range cfg.Rates {
		for _, s := range strategies {
			first := cfg.Seed + 7_000_001 + int64(len(rows)*cfg.Trials)
			work := make([]float64, cfg.Trials)
			tally, err := fault.RunCampaign(cfg.Trials, 0, func(i int) (bool, bool, error) {
				alu, err := fault.NewTransient(rate, fault.BitFlip{Bit: -1}, rand.New(rand.NewSource(first+int64(i))))
				if err != nil {
					return false, false, err
				}
				correct, signalled, wf, err := s.trial(alu)
				work[i] = wf
				return correct, signalled, err
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: rollback %s: %w", s.name, err)
			}
			// Summed in trial order, so the mean does not depend on the
			// schedule.
			var sum float64
			for _, wf := range work {
				sum += wf
			}
			rows = append(rows, RollbackRow{Strategy: s.name, Rate: rate, Tally: tally, WorkFactor: sum / float64(cfg.Trials)})
		}
	}
	return rows, nil
}

// RollbackMarkdown renders the rollback rows.
func RollbackMarkdown(rows []RollbackRow) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Strategy,
			fmt.Sprintf("%.0e", r.Rate),
			fmt.Sprintf("%.3f", r.Tally.Coverage()),
			fmt.Sprintf("%d", r.Tally.SDC),
			fmt.Sprintf("%d", r.Tally.Detected),
			fmt.Sprintf("%.3f×", r.WorkFactor),
		})
	}
	return Markdown([]string{"Rollback", "Fault rate", "Coverage", "SDC", "DUE", "Work"}, out)
}
