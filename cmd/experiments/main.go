// Command experiments regenerates every table and figure of the paper plus
// the repository's ablations, printing Markdown to stdout.
//
// Usage:
//
//	experiments [-which all|table1|figure3|figure4|intext|freeze|coverage|rollback|weights|guarantee|qualifier]
//	            [-full] [-seed N]
//
// -full runs Table 1 at the paper's exact dimensions (96 × 11×11×3 filters
// over a 227×227×3 input; roughly half a minute of emulated-FPGA
// arithmetic); without it a scaled workload preserving the ratios is used.
// The qualifier table uses its own fixed design and held-out seeds, so
// -seed does not move it.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/reliable"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	which := fs.String("which", "all", "experiment to run: all|table1|figure3|figure4|intext|freeze|coverage|rollback|weights|guarantee|qualifier")
	full := fs.Bool("full", false, "run Table 1 at the paper's full AlexNet conv1 dimensions")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	run := map[string]bool{}
	if *which == "all" {
		for _, k := range []string{"table1", "figure3", "figure4", "intext", "freeze", "coverage", "rollback", "weights", "guarantee", "qualifier"} {
			run[k] = true
		}
	} else {
		run[*which] = true
	}
	ran := false

	if run["table1"] {
		ran = true
		fmt.Println("## Table 1 — reliable convolution execution time")
		fmt.Println()
		res, err := experiments.RunTable1(experiments.Table1Config{Full: *full, Seed: *seed})
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		fmt.Println(res.Markdown())
		fmt.Println("Paper (Python, i9-9900): Algorithm 1 = 301.91 s, Algorithm 2 = 648.87 s (2.15×), native TF = 0.05 s, naive SAX = 1.942 s.")
		fmt.Println()
	}
	if run["figure3"] {
		ran = true
		fmt.Println("## Figure 3 — radial time series and SAX word of an angled stop sign")
		fmt.Println()
		res, err := experiments.RunFigure3(experiments.Figure3Config{Seed: *seed})
		if err != nil {
			return fmt.Errorf("figure3: %w", err)
		}
		fmt.Println(res.Markdown())
	}
	if run["figure4"] {
		ran = true
		fmt.Println("## Figure 4 — stop-class confidence per replaced first-layer filter")
		fmt.Println()
		res, err := experiments.RunFigure4(experiments.Figure4Config{Seed: *seed})
		if err != nil {
			return fmt.Errorf("figure4: %w", err)
		}
		fmt.Println(res.Markdown())
	}
	if run["intext"] {
		ran = true
		fmt.Println("## In-text — confusion matrices before/after Sobel replacement")
		fmt.Println()
		res, err := experiments.RunConfusionCompare(experiments.Figure4Config{Seed: *seed})
		if err != nil {
			return fmt.Errorf("intext: %w", err)
		}
		fmt.Println(res.Markdown())
	}
	if run["freeze"] {
		ran = true
		fmt.Println("## In-text — Sobel pre-initialisation freeze study")
		fmt.Println()
		res, err := experiments.RunFreezeStudy(experiments.Figure4Config{Seed: *seed})
		if err != nil {
			return fmt.Errorf("freeze: %w", err)
		}
		fmt.Println(res.Markdown())
		fmt.Println()
	}
	if run["coverage"] {
		ran = true
		fmt.Println("## Ablation A — redundancy-mode fault coverage")
		fmt.Println()
		rows, err := experiments.RunRedundancyCoverage(experiments.CoverageConfig{Seed: *seed})
		if err != nil {
			return fmt.Errorf("coverage: %w", err)
		}
		fmt.Println(experiments.CoverageMarkdown(rows))
		fmt.Println()
	}
	if run["rollback"] {
		ran = true
		fmt.Println("## Ablation B — rollback distance")
		fmt.Println()
		rows, err := experiments.RunRollbackAblation(experiments.RollbackConfig{Seed: *seed})
		if err != nil {
			return fmt.Errorf("rollback: %w", err)
		}
		fmt.Println(experiments.RollbackMarkdown(rows))
		fmt.Println()
	}
	if run["weights"] {
		ran = true
		fmt.Println("## Weight-memory SEU study (unprotected vs SECDED ECC)")
		fmt.Println()
		res, err := experiments.RunWeightFaultStudy(experiments.WeightFaultConfig{
			Train: experiments.Figure4Config{Seed: *seed},
		})
		if err != nil {
			return fmt.Errorf("weights: %w", err)
		}
		fmt.Println(res.Markdown())
	}
	if run["guarantee"] {
		ran = true
		fmt.Println("## Analytic reliability guarantee (first AlexNet conv layer)")
		fmt.Println()
		// 105,415,200 MACs → 2× as many overloaded operations.
		const ops = 2 * 105_415_200
		for _, mode := range []core.RedundancyMode{
			core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR,
		} {
			g, err := core.ComputeGuarantee(core.GuaranteeParams{
				PerOpFaultProb: 1e-9, CollisionProb: 1.0 / 32, Mode: mode,
				BucketFactor: reliable.DefaultFactor, BucketCeiling: reliable.DefaultCeiling,
				OpsPerInference: ops,
			})
			if err != nil {
				return fmt.Errorf("guarantee: %w", err)
			}
			fmt.Println(g.String())
		}
		fmt.Println()
	}
	if run["qualifier"] {
		ran = true
		fmt.Println("## Qualifier — true shape × verdict (measurement only)")
		fmt.Println()
		res, err := experiments.RunQualifierTable(experiments.QualifierConfig{})
		if err != nil {
			return fmt.Errorf("qualifier: %w", err)
		}
		fmt.Println(res.Markdown())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	return nil
}
