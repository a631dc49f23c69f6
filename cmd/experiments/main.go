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
// -seed does not move it. Every section but Table 1 prints the same bytes
// on every run of one seed; EXPERIMENTS.md holds them for the default seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/reliable"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// section is one heading of the output. It prints "## heading", a blank
// line, what run returns and one more line break.
type section struct {
	key, heading string
	run          func() (string, error)
}

// sections is every experiment, in the order -which all prints them. The
// Figure 4 model that figure4, intext, freeze and weights read is trained
// once, by the first of them that runs.
func sections(seed int64, full bool) []section {
	trained := sync.OnceValues(func() (*experiments.Model, error) {
		return experiments.TrainFigure4(experiments.Figure4Config{Seed: seed})
	})
	return []section{
		{"table1", "Table 1 — reliable convolution execution time", func() (string, error) {
			res, err := experiments.RunTable1(experiments.Table1Config{Full: full, Seed: seed})
			if err != nil {
				return "", err
			}
			return res.Markdown() + "\nPaper (Python, i9-9900): Algorithm 1 = 301.91 s, Algorithm 2 = 648.87 s (2.15×), native TF = 0.05 s, naive SAX = 1.942 s.\n", nil
		}},
		{"figure3", "Figure 3 — radial time series and SAX word of an angled stop sign", func() (string, error) {
			return markdown(experiments.RunFigure3(experiments.Figure3Config{Seed: seed}))
		}},
		{"figure4", "Figure 4 — stop-class confidence per replaced first-layer filter", onModel(trained, experiments.RunFigure4)},
		{"intext", "In-text — confusion matrices before/after Sobel replacement", onModel(trained, experiments.RunConfusionCompare)},
		{"freeze", "In-text — Sobel pre-initialisation freeze study", func() (string, error) {
			md, err := onModel(trained, experiments.RunFreezeStudy)()
			return md + "\n", err
		}},
		{"coverage", "Ablation A — redundancy-mode fault coverage", func() (string, error) {
			rows, err := experiments.RunRedundancyCoverage(experiments.CoverageConfig{Seed: seed})
			return experiments.CoverageMarkdown(rows) + "\n", err
		}},
		{"rollback", "Ablation B — rollback distance", func() (string, error) {
			rows, err := experiments.RunRollbackAblation(experiments.RollbackConfig{Seed: seed})
			return experiments.RollbackMarkdown(rows) + "\n", err
		}},
		{"weights", "Weight-memory SEU study (unprotected vs SECDED ECC)", onModel(trained, func(m *experiments.Model) (*experiments.WeightFaultResult, error) {
			return experiments.RunWeightFaultStudy(m, experiments.WeightFaultConfig{})
		})},
		{"guarantee", "Analytic reliability guarantee (first AlexNet conv layer)", func() (string, error) {
			var b strings.Builder
			for _, mode := range []core.RedundancyMode{
				core.ModePlain, core.ModeTemporalDMR, core.ModeSpatialDMR, core.ModeTMR,
			} {
				g, err := core.ComputeGuarantee(core.GuaranteeParams{
					PerOpFaultProb: 1e-9, CollisionProb: 1.0 / 32, Mode: mode,
					BucketFactor: reliable.DefaultFactor, BucketCeiling: reliable.DefaultCeiling,
					// 105,415,200 MACs → 2× as many overloaded operations.
					OpsPerInference: 2 * 105_415_200,
				})
				if err != nil {
					return "", err
				}
				b.WriteString(g.String() + "\n")
			}
			return b.String(), nil
		}},
		{"qualifier", "Qualifier — true shape × verdict (measurement only)", func() (string, error) {
			return markdown(experiments.RunQualifierTable(experiments.QualifierConfig{}))
		}},
	}
}

// markdown renders a result, or passes its error on.
func markdown[R interface{ Markdown() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Markdown(), nil
}

// onModel runs study on the Figure 4 model trained returns.
func onModel[R interface{ Markdown() string }](trained func() (*experiments.Model, error), study func(*experiments.Model) (R, error)) func() (string, error) {
	return func() (string, error) {
		m, err := trained()
		if err != nil {
			return "", err
		}
		return markdown(study(m))
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	which := fs.String("which", "all", "experiment to run: all|table1|figure3|figure4|intext|freeze|coverage|rollback|weights|guarantee|qualifier")
	full := fs.Bool("full", false, "run Table 1 at the paper's full AlexNet conv1 dimensions")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	all := sections(*seed, *full)
	selected := all
	if *which != "all" {
		selected = nil
		for _, s := range all {
			if s.key == *which {
				selected = []section{s}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown experiment %q", *which)
		}
	}
	for _, s := range selected {
		fmt.Fprintf(w, "## %s\n\n", s.heading)
		body, err := s.run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
		fmt.Fprintln(w, body)
	}
	return nil
}
