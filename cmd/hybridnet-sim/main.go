// Command hybridnet-sim runs the deterministic fleet simulator: scripted
// shards with piecewise service-time curves, a seeded virtual clock, and
// the real placement code (shard.Placer) fed probe-stale capacity signals.
// It is how placement policies are compared without standing up a fleet —
// the same runs CI gates on, replayable byte-for-byte from a seed.
//
//	hybridnet-sim                                 # full builtin matrix, all policies
//	hybridnet-sim -scenario adversarial-flap      # one builtin, all policies
//	hybridnet-sim -scenario ./my-scenario.json    # a scripted scenario file
//	hybridnet-sim -policy p2c -table              # human-readable table instead of JSON
//	hybridnet-sim -list                           # builtin scenario names
//
// Output is the indented-JSON comparison report ([]sim.Comparison); the
// determinism guarantee is stated over these bytes: same scenarios, same
// policies, same seeds → identical output. -table renders the same data as
// an aligned text table for eyeballing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/sim"
)

func main() {
	fs := flag.NewFlagSet("hybridnet-sim", flag.ExitOnError)
	scenario := fs.String("scenario", "", "builtin scenario name or path to a scenario JSON file (default: every builtin)")
	policy := fs.String("policy", "", "single placement policy to run (default: all of "+strings.Join(sim.Policies(), ", ")+")")
	table := fs.Bool("table", false, "print an aligned text table instead of the JSON report")
	list := fs.Bool("list", false, "list builtin scenarios and exit")
	fs.Parse(os.Args[1:])

	if *list {
		for _, sc := range sim.Builtins() {
			fmt.Printf("%-22s %s\n", sc.Name, sc.Description)
		}
		return
	}

	scenarios := sim.Builtins()
	if *scenario != "" {
		sc, err := sim.Builtin(*scenario)
		if err != nil {
			// Not a builtin: treat it as a scenario file.
			sc, err = sim.LoadScenario(*scenario)
			if err != nil {
				fatal(err)
			}
		}
		scenarios = []sim.Scenario{sc}
	}
	policies := sim.Policies()
	if *policy != "" {
		policies = []string{*policy}
	}

	comps, err := sim.Matrix(scenarios, policies)
	if err != nil {
		fatal(err)
	}
	if *table {
		w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(w, "scenario\tpolicy\tp50\tp99\tp999\tshed\tfailovers\tcompleted")
		for _, c := range comps {
			for _, r := range c.Results {
				fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%v\t%d\t%d\t%d\n",
					c.Scenario, r.Policy,
					r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
					r.P999.Round(time.Microsecond), r.Shed, r.Failovers, r.Completed)
			}
		}
		w.Flush()
		return
	}
	report, err := sim.Report(comps)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(report)
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridnet-sim:", err)
	os.Exit(1)
}
