package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// BENCHMARK.json must name exactly what the binary prints, in the
// catalogue's order, with its units, directions and bounds.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(f.Workloads), len(specs))
	}
	for i, sp := range specs {
		if f.Workloads[i].Name != sp.name || f.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, sp.name, sp.why)
		}
	}
	check := func(kind string, listed []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the catalogue %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the catalogue %+v", kind, i, got, d)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != d.Bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from the catalogue's %v", d.Name, d.Bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s: a per-layer metric carries a bound", d.Name)
			}
		}
	}
	check("end-to-end", f.EndToEnd, endToEnd, true)
	check("per-layer", f.PerLayer, perLayer, false)
	if len(f.Command) != 2 || f.Command[0] != "bash" || f.Command[1] != "bench/run.sh" {
		t.Errorf("command %q", f.Command)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths %q", f.Paths)
	}
}

// The limits the driver enforces before it makes a single run.
func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	useName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		useName(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s should carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range perLayer {
		useName(d.Name)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, sp := range specs {
		useName(sp.name)
		if len(sp.why) == 0 || len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, want 1 to 200", sp.name, len(sp.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(specs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if f := readBenchmarkFile(t); f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
	// A traced run starts from zeros(): every per-layer metric and nothing else.
	z := zeros()
	if len(z) != len(perLayer) {
		t.Errorf("zeros() holds %d metrics, the catalogue %d", len(z), len(perLayer))
	}
}

func TestSetRejectsUnknownName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a metric outside the catalogue was accepted")
		}
	}()
	metricSet{}.set("latency_p51_ms", 1)
}
