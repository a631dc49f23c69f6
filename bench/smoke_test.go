package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBench compiles the benchmark binary for the tests that run it whole.
func buildBench(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return exe
}

// daemonsRunning lists processes executing a binary from the benchmark's
// build directory: fleets that some run failed to take down.
func daemonsRunning(t *testing.T) []string {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(buildDir(root), "bin")
	var out []string
	err = eachProc(func(pid int, st procStat) {
		exe, err := os.Readlink(filepath.Join("/proc", strconv.Itoa(pid), "exe"))
		if err == nil && st.state != 'Z' && strings.HasPrefix(exe, bin+string(filepath.Separator)) &&
			strings.HasPrefix(filepath.Base(exe), "hybridnet") {
			out = append(out, exe)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// result is the line the driver reads.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload for one second in both trace modes, daemons
// and all, the way the driver does, and checks the shape of what it prints.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole benchmark, subprocesses included")
	}
	exe := buildBench(t)
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, sp := range specs {
			cmd := exec.Command(exe, "-workload", sp.name, "-seed", "3", "-seconds", "1", "-trace", strconv.Itoa(trace))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", sp.name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s trace %d: last line is not a result: %v\n%s", sp.name, trace, err, lines[len(lines)-1])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed\n%s", sp.name, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics printed, want %d", sp.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or malformed: %+v", sp.name, trace, d.Name, m)
				} else if trace == 0 && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be zero", sp.name, d.Name, *m.Value)
				}
			}
		}
	}
	if left := daemonsRunning(t); len(left) > 0 {
		t.Errorf("daemons left running after successful runs: %v", left)
	}
}

// TestInterruptLeavesNoDaemons stops a fleet run half-way, as a user's ^C or
// the driver's timeout would, and checks that the run fails without
// printing a result and takes its router and workers with it.
func TestInterruptLeavesNoDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the fleet")
	}
	exe := buildBench(t)
	cmd := exec.Command(exe, "-workload", "fleet-streams", "-seconds", "30", "-trace", "0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the fleet is up, then a little into the run.
	deadline := time.Now().Add(60 * time.Second)
	for len(daemonsRunning(t)) < 1+fleetShards {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("fleet never came up\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)
	cmd.Process.Signal(syscall.SIGINT)
	err := cmd.Wait()
	if err == nil {
		t.Errorf("interrupted run exited 0\n%s", stderr.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("interrupted run printed a result: %s", stdout.String())
	}
	if left := daemonsRunning(t); len(left) > 0 {
		t.Errorf("daemons outlived an interrupted run: %v\n%s", left, stderr.String())
	}
}

func TestCompareFlag(t *testing.T) {
	if err := realMain([]string{"-compare", "only-one.json"}); err == nil {
		t.Error("-compare with one file accepted")
	}
	if err := realMain([]string{"-workload", "no-such", "-seconds", "1"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := realMain([]string{"-workload", "frame-loop", "-seconds", "0"}); err == nil {
		t.Error("-seconds 0 accepted")
	}
	if err := realMain([]string{"-workload", "frame-loop", "-trace", "2"}); err == nil {
		t.Error("-trace 2 accepted")
	}
}
