package main

import (
	"fmt"
	"io"
	"sort"
)

// side is one file's evidence for a metric on a workload: the median over
// its runs and how far those runs spread.
type side struct {
	median float64
	spread float64 // share of the median
	runs   int
}

// sideOf reduces a metric's values across runs. With two or more runs the
// spread is the distance between the quartiles, as the driver takes it;
// a single run falls back on the extremes of its own segments.
func sideOf(ms []Metric) side {
	vals := make([]float64, len(ms))
	for i, m := range ms {
		vals[i] = m.Value
	}
	s := side{median: median(vals), runs: len(ms)}
	if s.median == 0 {
		return s
	}
	if len(ms) == 1 {
		s.spread = (ms[0].Max - ms[0].Min) / s.median
	} else {
		q1, q3 := quartiles(vals)
		s.spread = (q3 - q1) / s.median
	}
	if s.spread < 0 {
		s.spread = -s.spread
	}
	return s
}

// Verdicts of a comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a change b against its parent a. The change regressed
// when its median is worse than the parent's by more than bound, a share of
// the parent's median. When either side's own runs spread wider than the
// bound, the difference cannot be told from noise and the metric is
// unresolved — not unchanged.
func judge(def metricDef, a, b side) string {
	if a.spread > def.Bound || b.spread > def.Bound {
		return verdictUnresolved
	}
	worse := b.median - a.median
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound*a.median {
		return verdictRegressed
	}
	return verdictOK
}

// collect groups a file's metrics by workload and name, for one trace mode.
func collect(f docFile, trace int) map[string]map[string][]Metric {
	out := map[string]map[string][]Metric{}
	for _, r := range f.Runs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]Metric{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m)
		}
	}
	return out
}

// compareFiles prints one row per workload and end-to-end metric with a
// verdict, then the per-layer metrics without one, and returns an error if
// anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readDocs(pathA)
	if err != nil {
		return err
	}
	b, err := readDocs(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	ea, eb := collect(a, 0), collect(b, 0)
	fmt.Fprintf(w, "%-15s %-18s %14s %8s %14s %8s %7s  %s\n",
		"workload", "metric", "a", "spread", "b", "spread", "bound", "verdict")
	for _, sp := range specs {
		for _, def := range endToEnd {
			ma, mb := ea[sp.name][def.Name], eb[sp.name][def.Name]
			if len(ma) == 0 || len(mb) == 0 {
				continue
			}
			sa, sb := sideOf(ma), sideOf(mb)
			v := judge(def, sa, sb)
			if v == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-15s %-18s %14.4f %7.1f%% %14.4f %7.1f%% %6.0f%%  %s\n",
				sp.name, def.Name, sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*def.Bound, v)
		}
	}
	la, lb := collect(a, 1), collect(b, 1)
	fmt.Fprintf(w, "\n%-15s %-34s %14s %14s  %s\n", "workload", "per-layer metric", "a", "b", "unit")
	for _, sp := range specs {
		names := make([]string, 0, len(la[sp.name]))
		for name := range la[sp.name] {
			if len(lb[sp.name][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			sa, sb := sideOf(la[sp.name][name]), sideOf(lb[sp.name][name])
			if sa.median == 0 && sb.median == 0 {
				continue // a layer this workload bypasses
			}
			fmt.Fprintf(w, "%-15s %-34s %14.4f %14.4f  %s\n", sp.name, name, sa.median, sb.median, units[name])
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
