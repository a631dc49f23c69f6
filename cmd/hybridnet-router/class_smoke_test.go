package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestServiceClassSmoke drives the service classes through the built
// daemons, decoding api.ClassifyResponse and /metrics, with loadgen as the
// open-loop driver: a budget wave against a busy worker degrades instead of
// shedding; mixed-class overload through the router is absorbed by budget
// degradation while guaranteed traffic completes; and a budget flood moves
// the guaranteed client p99 by at most one histogram bucket.
//
// It builds the daemons and saturates the host's cores for about 40 s, which
// would starve the timing tests of the packages `go test ./...` runs beside
// it, so it runs only when a -run filter selects it, and never under
// -short: go test -count=1 -run TestServiceClassSmoke ./cmd/hybridnet-router/
func TestServiceClassSmoke(t *testing.T) {
	if testing.Short() || flag.Lookup("test.run").Value.String() == "" {
		t.Skip("load test: select it with -run TestServiceClassSmoke")
	}
	bin := buildBinaries(t, "cmd/hybridnetd", "cmd/hybridnet-router", "examples/loadgen")
	worker, router := filepath.Join(bin, "hybridnetd"), filepath.Join(bin, "hybridnet-router")
	loadgen := filepath.Join(bin, "loadgen")
	b, g := serve.ClassBudget, serve.ClassGuaranteed

	t.Run("degradation", func(t *testing.T) {
		// -size 96 makes one full-pipeline classification slow enough that
		// a budget wave lands while the backend is busy: with budget=1 the
		// first wave member queues as budget and the rest must degrade into
		// the roomy fast queue — 200s marked degraded, not 503s.
		base, _ := startDaemon(t, worker, "-demo", "-size", "96", "-max-batch", "2", "-max-delay", "0",
			"-timeout", "30s", "-class-queues", "budget=1,fast=512")
		var wg sync.WaitGroup
		var guaranteed answer
		wg.Add(1)
		go func() {
			defer wg.Done()
			guaranteed = classify(base, g, 9)
		}()
		time.Sleep(100 * time.Millisecond)
		budget := make([]answer, 4)
		for i := range budget {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				budget[i] = classify(base, b, int64(i+1))
			}(i)
		}
		wg.Wait()
		if a := guaranteed; a.status != http.StatusOK || a.ServiceClass != "guaranteed" || a.Degraded {
			t.Errorf("guaranteed: status %d %+v, want an undegraded guaranteed 200", a.status, a.ClassifyResponse)
		}
		degraded := 0
		for i, a := range budget {
			// Every budget response is a 200 that names its class: degrade,
			// not shed.
			if a.status != http.StatusOK || a.ServiceClass != "budget" {
				t.Errorf("budget %d: status %d %+v, want a budget 200", i+1, a.status, a.ClassifyResponse)
			}
			if a.Degraded {
				degraded++
				// A degraded response skipped the reliable stage entirely.
				if a.ReliableOps != 0 {
					t.Errorf("budget %d: degraded but ran %d reliable ops", i+1, a.ReliableOps)
				}
			}
		}
		if degraded == 0 {
			t.Error("no budget request degraded while the backend was busy")
		}
	})

	t.Run("mixed-overload", func(t *testing.T) {
		// Offered load far exceeds fleet capacity; the budget tier absorbs
		// the squeeze by degrading (zero budget 503s: its overflow lands in
		// the 512-deep fast queue, which loadgen's 256 in flight can never
		// fill) while guaranteed traffic keeps completing.
		base, _ := startDaemon(t, router, "-shards", "2", "-worker-bin", worker,
			"-worker-args", "-demo -size 96 -max-batch 8 -max-delay 10ms -timeout 60s -class-queues budget=2,fast=512",
			"-health-interval", "100ms", "-timeout", "60s")
		rep := runLoadgen(t, loadgen, base, 120, 6*time.Second, "guaranteed=0.1,fast=0.5,budget=0.4")
		if r := rep[b]; r.ok == 0 || r.shed != 0 || r.degraded == 0 {
			t.Errorf("budget: %d 200s, %d 503s, %d degraded; want 200s, no 503s, some degraded", r.ok, r.shed, r.degraded)
		}
		if rep[g].ok == 0 {
			t.Error("no guaranteed request completed under overload")
		}
		// The fleet /metrics tells the same story, class-labeled.
		client := &http.Client{Timeout: 10 * time.Second}
		fams := scrape(t, client, base)
		if v := sample(t, fams, "hybridnet_requests_completed_total", "class", "guaranteed"); v < 1 {
			t.Errorf("fleet completed{guaranteed} %v, want ≥ 1", v)
		}
		if v := sample(t, fams, "hybridnet_requests_degraded_total", "class", "budget"); v < 1 {
			t.Errorf("fleet degraded{budget} %v, want ≥ 1", v)
		}
		if v := sample(t, fams, "hybridnet_requests_rejected_total", "class", "budget"); v != 0 {
			t.Errorf("fleet rejected{budget} %v, want 0", v)
		}
		var fleet api.FleetHealth
		if _, err := getJSON(client, base+"/healthz", &fleet); err != nil || len(fleet.ClassQueueDepths) != serve.NumClasses {
			t.Errorf("fleet /healthz %+v (%v), want the per-class queue depths", fleet, err)
		}
	})

	t.Run("isolation", func(t *testing.T) {
		// Uncontended guaranteed traffic pays the -max-delay batch-fill
		// wait; under a budget flood batches fill at once, and the WRR
		// weight (16:1) keeps the guaranteed tier inside the same latency
		// envelope while budget absorbs the overload by degrading.
		args := []string{"-demo", "-size", "32", "-max-batch", "4", "-max-delay", "150ms",
			"-timeout", "60s", "-class-queues", "budget=4,fast=512"}
		measure := func(rps float64, mix string) map[serve.Class]classReport {
			base, stop := startDaemon(t, worker, args...)
			defer stop()
			return runLoadgen(t, loadgen, base, rps, 15*time.Second, mix)
		}
		quiet := measure(20, "guaranteed=1")
		flood := measure(220, "guaranteed=1,budget=10")
		if flood[b].shed != 0 || flood[b].degraded == 0 || flood[g].shed != 0 {
			t.Fatalf("flood: budget %d 503s, %d degraded; guaranteed %d 503s — want no 503s and some degraded",
				flood[b].shed, flood[b].degraded, flood[g].shed)
		}
		q, f := quiet[g].p99, flood[g].p99
		if q == 0 || f == 0 {
			t.Fatalf("guaranteed p99: uncontended %v, budget-flood %v — want both measured", q, f)
		}
		// Both p99s sit on serve.Histogram bucket bounds (or the exact max),
		// printed to the µs: compare bucket indexes, a value within half a
		// µs of a bound counting as on it.
		bounds := serve.HistogramBounds()
		bucket := func(d time.Duration) int {
			return sort.Search(len(bounds), func(i int) bool { return d <= bounds[i]+time.Microsecond/2 })
		}
		t.Logf("guaranteed p99: uncontended %v vs budget-flood %v", q, f)
		if bucket(f) > bucket(q)+1 {
			t.Fatalf("guaranteed p99 moved %d buckets under the budget flood (%v -> %v)", bucket(f)-bucket(q), q, f)
		}
	})
}

// startDaemon starts one of the built daemons on a free address with args,
// waits for its /healthz, and returns its base URL and stop, which SIGTERMs
// it and requires a clean exit. Cleanup stops it if the test did not.
func startDaemon(t *testing.T, bin string, args ...string) (string, func()) {
	t.Helper()
	addr := freeAddr(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			select {
			case err := <-exited:
				if err != nil {
					t.Errorf("%s exit after SIGTERM: %v, want status 0\n%s", filepath.Base(bin), err, stderr.String())
				}
			case <-time.After(60 * time.Second):
				syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
				<-exited
				t.Errorf("%s still running 60s after SIGTERM", filepath.Base(bin))
			}
		})
	}
	t.Cleanup(stop)
	base := "http://" + addr
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
		select {
		case err := <-exited:
			exited <- err
			t.Fatalf("%s exited before answering /healthz: %v\n%s", filepath.Base(bin), err, stderr.String())
		default:
		}
		var health map[string]any
		if status, err := getJSON(client, base+"/healthz", &health); err == nil && status == http.StatusOK {
			return base, stop
		}
	}
	t.Fatalf("%s never answered /healthz", filepath.Base(bin))
	return "", nil
}

// answer is one /classify outcome: the status and, on a 200, the body.
type answer struct {
	status int
	api.ClassifyResponse
}

func classify(base string, class serve.Class, seed int64) answer {
	body, _ := json.Marshal(api.ClassifyRequest{Sign: "stop", Seed: seed})
	req, err := http.NewRequest(http.MethodPost, base+"/classify", bytes.NewReader(body))
	if err != nil {
		return answer{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.ClassHeader, class.String())
	resp, err := (&http.Client{Timeout: 60 * time.Second}).Do(req)
	if err != nil {
		return answer{} // status 0: a transport error
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode}
	if a.status == http.StatusOK && json.NewDecoder(resp.Body).Decode(&a.ClassifyResponse) != nil {
		a.status = 0
	}
	return a
}

// classReport is one class's line of loadgen's per-class report.
type classReport struct {
	ok, shed, degraded int
	p99                time.Duration // 0 without a 200
}

// runLoadgen runs the built loadgen against base at rps for d under the
// -class-mix mix and returns its per-class report, the lines
// "  <class> sent N 200s N 503s N [p50 D p99 D max D] [degraded N]".
func runLoadgen(t *testing.T, loadgen, base string, rps float64, d time.Duration, mix string) map[serve.Class]classReport {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(loadgen, "-addr", base, "-rps", strconv.FormatFloat(rps, 'g', -1, 64),
		"-duration", d.String(), "-timeout", "60s", "-class-mix", mix)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	t.Logf("loadgen -rps %v -class-mix %s:\n%s", rps, mix, out)
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, stderr.String())
	}
	_, lines, found := strings.Cut(string(out), "per-class (client view):\n")
	if !found {
		t.Fatal("loadgen printed no per-class report")
	}
	rep := map[serve.Class]classReport{}
	for _, line := range strings.Split(lines, "\n") {
		if !strings.HasPrefix(line, "  ") {
			break
		}
		f := strings.Fields(line)
		class, err := serve.ParseClass(f[0])
		if err != nil {
			t.Fatalf("loadgen line %q: %v", line, err)
		}
		kv := map[string]string{}
		for i := 1; i+1 < len(f); i += 2 {
			kv[f[i]] = f[i+1]
		}
		count := func(key string) int {
			if kv[key] == "" {
				return 0 // loadgen omits a zero degraded count
			}
			n, err := strconv.Atoi(kv[key])
			if err != nil {
				t.Fatalf("loadgen line %q: %s: %v", line, key, err)
			}
			return n
		}
		r := classReport{ok: count("200s"), shed: count("503s"), degraded: count("degraded")}
		if p := kv["p99"]; p != "" {
			if r.p99, err = time.ParseDuration(p); err != nil {
				t.Fatalf("loadgen line %q: p99: %v", line, err)
			}
		}
		rep[class] = r
	}
	return rep
}
