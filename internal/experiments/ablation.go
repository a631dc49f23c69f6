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

// coverageWorkload builds the small convolution used per trial.
func coverageWorkload(seed int64) (in, filters, oracle *tensor.Tensor, spec reliable.ConvSpec, err error) {
	rng := rand.New(rand.NewSource(seed))
	in = tensor.MustNew(3, 8, 8)
	in.FillUniform(rng, 0, 1)
	filters = tensor.MustNew(2, 3, 3, 3)
	filters.FillUniform(rng, -0.5, 0.5)
	spec = reliable.ConvSpec{Stride: 1}
	oracle, err = reliable.NativeConv2D(in, filters, nil, spec)
	return in, filters, oracle, spec, err
}

// RunRedundancyCoverage measures the masked/corrected/detected/SDC split of
// every redundancy mode under transient SEUs and under a permanent single-PE
// defect — the quantitative version of Section II's qualitative argument
// that temporal redundancy handles transients but is defeated by permanent
// faults, which spatial redundancy detects and TMR masks.
func RunRedundancyCoverage(cfg CoverageConfig) ([]CoverageRow, error) {
	cfg = cfg.normalize()
	in, filters, oracle, spec, err := coverageWorkload(cfg.Seed)
	if err != nil {
		return nil, err
	}
	modes := []core.RedundancyMode{
		core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR,
	}
	scenarios := []string{"transient", "permanent-1pe"}
	var rows []CoverageRow
	trialSeed := cfg.Seed

	for _, mode := range modes {
		for _, scenario := range scenarios {
			tally, err := fault.RunCampaign(cfg.Trials, func() (bool, bool, error) {
				trialSeed++
				factory := coverageFactory(scenario, cfg.TransientRate, trialSeed)
				ops, err := mode.NewOps(factory)
				if err != nil {
					return false, false, err
				}
				engine, err := reliable.NewEngine(ops, nil)
				if err != nil {
					return false, false, err
				}
				out, err := reliable.Conv2D(engine, in, filters, nil, spec)
				if err != nil {
					if errors.Is(err, reliable.ErrBucketTripped) {
						return false, true, nil // detected unrecoverable
					}
					return false, false, err
				}
				correct := out.Equal(oracle)
				signalled := engine.Stats().Retries > 0
				return correct, signalled, nil
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: coverage %v/%s: %w", mode, scenario, err)
			}
			rows = append(rows, CoverageRow{Mode: mode, Scenario: scenario, Tally: tally})
		}
	}
	return rows, nil
}

// coverageFactory returns an ALU factory for the scenario. For the
// permanent scenario only the FIRST PE drawn is defective, so spatial
// redundancy pairs a broken PE with a healthy one.
func coverageFactory(scenario string, rate float64, seed int64) core.ALUFactory {
	n := 0
	return func() fault.ALU {
		n++
		switch scenario {
		case "transient":
			alu, err := fault.NewTransient(rate, fault.BitFlip{Bit: -1},
				rand.New(rand.NewSource(seed+int64(n)*101)))
			if err != nil {
				panic(err) // unreachable: parameters are valid
			}
			return alu
		case "permanent-1pe":
			if n == 1 {
				alu, err := fault.NewPermanent(fault.StuckAt{Bit: 22, Value: true})
				if err != nil {
					panic(err)
				}
				return alu
			}
			return fault.Ideal{}
		default:
			return fault.Ideal{}
		}
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
func RunRollbackAblation(cfg RollbackConfig) ([]RollbackRow, error) {
	cfg = cfg.normalize()
	in, filters, oracle, spec, err := coverageWorkload(cfg.Seed)
	if err != nil {
		return nil, err
	}
	macs, err := reliable.MACCount(in, filters, spec)
	if err != nil {
		return nil, err
	}
	opsPerUnit := 2 * macs // one mul + one add per MAC
	var rows []RollbackRow
	trialSeed := cfg.Seed + 7_000_000

	for _, rate := range cfg.Rates {
		// Strategy 1: op-level rollback (temporal DMR engine).
		var workSum float64
		tally, err := fault.RunCampaign(cfg.Trials, func() (bool, bool, error) {
			trialSeed++
			alu, err := fault.NewTransient(rate, fault.BitFlip{Bit: -1},
				rand.New(rand.NewSource(trialSeed)))
			if err != nil {
				return false, false, err
			}
			ops, err := reliable.NewTemporalDMR(alu)
			if err != nil {
				return false, false, err
			}
			engine, err := reliable.NewEngine(ops, nil)
			if err != nil {
				return false, false, err
			}
			out, err := reliable.Conv2D(engine, in, filters, nil, spec)
			// Each attempt executes the operation twice under DMR.
			workSum += 2 * float64(engine.Stats().Ops) / float64(opsPerUnit)
			if err != nil {
				if errors.Is(err, reliable.ErrBucketTripped) {
					return false, true, nil
				}
				return false, false, err
			}
			return out.Equal(oracle), engine.Stats().Retries > 0, nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: rollback op-level: %w", err)
		}
		rows = append(rows, RollbackRow{
			Strategy: "op", Rate: rate, Tally: tally,
			WorkFactor: workSum / float64(cfg.Trials),
		})

		// Strategy 2: unit-level checkpoint/rollback.
		workSum = 0
		tally, err = fault.RunCampaign(cfg.Trials, func() (bool, bool, error) {
			trialSeed++
			alu, err := fault.NewTransient(rate, fault.BitFlip{Bit: -1},
				rand.New(rand.NewSource(trialSeed)))
			if err != nil {
				return false, false, err
			}
			plain, err := reliable.NewPlain(alu)
			if err != nil {
				return false, false, err
			}
			unit := func() (*tensor.Tensor, error) {
				engine, err := reliable.NewEngine(plain, reliable.NewDefaultBucket())
				if err != nil {
					return nil, err
				}
				return reliable.Conv2D(engine, in, filters, nil, spec)
			}
			res, err := reliable.CheckpointedRun(unit, cfg.MaxUnitAttempts, opsPerUnit)
			workSum += float64(res.OpsExecuted) / float64(opsPerUnit)
			if err != nil {
				if errors.Is(err, reliable.ErrRollbackExhausted) {
					return false, true, nil
				}
				return false, false, err
			}
			return res.Output.Equal(oracle), res.Rollbacks > 0, nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: rollback unit-level: %w", err)
		}
		rows = append(rows, RollbackRow{
			Strategy: "unit", Rate: rate, Tally: tally,
			WorkFactor: workSum / float64(cfg.Trials),
		})

		// Strategy 3: unprotected.
		tally, err = fault.RunCampaign(cfg.Trials, func() (bool, bool, error) {
			trialSeed++
			alu, err := fault.NewTransient(rate, fault.BitFlip{Bit: -1},
				rand.New(rand.NewSource(trialSeed)))
			if err != nil {
				return false, false, err
			}
			plain, err := reliable.NewPlain(alu)
			if err != nil {
				return false, false, err
			}
			engine, err := reliable.NewEngine(plain, nil)
			if err != nil {
				return false, false, err
			}
			out, err := reliable.Conv2D(engine, in, filters, nil, spec)
			if err != nil {
				return false, false, err
			}
			return out.Equal(oracle), false, nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: rollback unprotected: %w", err)
		}
		rows = append(rows, RollbackRow{
			Strategy: "none", Rate: rate, Tally: tally, WorkFactor: 1,
		})
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
