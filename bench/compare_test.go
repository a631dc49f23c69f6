package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_ips", Better: "higher", Bound: 0.10}
	quiet := func(v float64) side { return side{median: v, spread: 0.02, runs: 10} }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b side
		want string
	}{
		{"lower: a little worse", lower, quiet(100), quiet(109), verdictOK},
		{"lower: worse past the bound", lower, quiet(100), quiet(111), verdictRegressed},
		{"lower: better", lower, quiet(100), quiet(50), verdictOK},
		{"higher: a little worse", higher, quiet(100), quiet(91), verdictOK},
		{"higher: worse past the bound", higher, quiet(100), quiet(89), verdictRegressed},
		{"higher: better", higher, quiet(100), quiet(150), verdictOK},
		{"the bound is a share of the parent's median", lower, quiet(10), quiet(11.5), verdictRegressed},
		{"parent too noisy to tell", lower, side{median: 100, spread: 0.2}, quiet(150), verdictUnresolved},
		{"change too noisy to tell", lower, quiet(100), side{median: 100, spread: 0.11}, verdictUnresolved},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSideOf(t *testing.T) {
	// One run: the spread is that of its own segments.
	one := sideOf([]Metric{{Value: 100, Min: 95, Max: 110}})
	if one.median != 100 || one.spread != 0.15 || one.runs != 1 {
		t.Errorf("single run: %+v", one)
	}
	// Several runs: the distance between the quartiles of their values.
	var runs []Metric
	for v := 1.0; v <= 10; v++ {
		runs = append(runs, Metric{Value: v, Min: 0, Max: 100})
	}
	many := sideOf(runs)
	if many.median != 5.5 || many.spread != (8.25-2.75)/5.5 || many.runs != 10 {
		t.Errorf("ten runs: %+v", many)
	}
	if z := sideOf([]Metric{{Value: 0, Min: 0, Max: 1}}); z.spread != 0 {
		t.Errorf("zero median: %+v", z)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, layer float64) string {
		path := filepath.Join(dir, name)
		untraced := runDoc{Workload: "frame-loop", Metrics: metricSet{}}
		untraced.Metrics.setStat("latency_p50_ms", stat{p50, p50 * 0.99, p50 * 1.01, 5})
		untraced.Metrics.setStat("throughput_ips", stat{66, 60, 90, 5}) // segments 45 % apart
		traced := runDoc{Workload: "frame-loop", Trace: 1, Metrics: zeros()}
		traced.Metrics.set("reliable.conv_ms", layer)
		for _, d := range []runDoc{untraced, traced} {
			if err := appendDoc(path, d); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.json", 15, 13), write("same.json", 15.5, 13.2), write("slow.json", 19, 17)

	var out bytes.Buffer
	if err := compareFiles(&out, a, same); err != nil {
		t.Errorf("a run 3 %% slower reported as a regression: %v", err)
	}
	for _, want := range []string{
		"frame-loop      latency_p50_ms", " ok", " unresolved", // throughput's own spread exceeds its bound
		"reliable.conv_ms", "13.2000",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "tensor.") {
		t.Errorf("per-layer metrics of bypassed layers listed:\n%s", out.String())
	}

	out.Reset()
	err := compareFiles(&out, a, slow)
	if err == nil || !strings.Contains(out.String(), " regressed") {
		t.Errorf("a run 20 %% slower: err %v, output:\n%s", err, out.String())
	}
	if _, err := readDocs(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file read")
	}
}
