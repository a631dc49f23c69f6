package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/shard"
)

// TestFleetSmoke is the end-to-end smoke of the two daemons as processes:
// it builds both binaries, starts the router in spawn mode over two demo
// workers, and drives the wire contract with the types that define it —
// classify, SIGKILL a worker, watch the supervisor respawn it, read /stats,
// /metrics (router and workers) and /debug/requests, then SIGTERM and
// require a clean exit. Skipped under -short: it compiles two binaries and
// waits out a respawn.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemons")
	}
	if runtime.GOOS != "linux" {
		t.Skip("finds the spawned workers through /proc")
	}
	bin := buildBinaries(t, "cmd/hybridnetd", "cmd/hybridnet-router")
	addr := freeAddr(t)
	base := "http://" + addr

	// restart-backoff 300ms > 2 × health-interval: the SIGKILLed worker
	// stays down for two full probe rounds, so its breaker provably opens
	// before the respawn re-admits it.
	var stderr bytes.Buffer
	router := exec.Command(filepath.Join(bin, "hybridnet-router"),
		"-addr", addr, "-shards", "2",
		"-worker-bin", filepath.Join(bin, "hybridnetd"), "-worker-args", "-demo -size 32",
		"-health-interval", "100ms", "-breaker", "2", "-restart-backoff", "300ms")
	router.Stderr = &stderr
	router.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- router.Wait() }()
	stopped := false
	defer func() {
		if !stopped {
			// A failed assertion must not leak the fleet: kill the group.
			syscall.Kill(-router.Process.Pid, syscall.SIGKILL)
			<-exited
		}
		if t.Failed() {
			t.Logf("daemon stderr:\n%s", stderr.String())
		}
	}()

	client := &http.Client{Timeout: 10 * time.Second}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Millisecond) {
			select {
			case err := <-exited:
				stopped = true
				t.Fatalf("router exited while waiting for %s: %v", what, err)
			default:
			}
			if cond() {
				return
			}
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	classify := func(seed int64) (api.ClassifyResponse, http.Header) {
		t.Helper()
		body, err := json.Marshal(api.ClassifyRequest{Sign: "stop", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+"/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("classify seed %d: status %d: %s", seed, resp.StatusCode, raw)
		}
		var answer api.ClassifyResponse
		if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
			t.Fatalf("classify seed %d: %v", seed, err)
		}
		if answer.Decision == "" || answer.ClassName == "" || answer.ServiceClass != "guaranteed" {
			t.Fatalf("classify seed %d: incomplete answer %+v", seed, answer)
		}
		return answer, resp.Header
	}
	// The router listens only after its first probe round, so a 200 here
	// means both workers answered /healthz.
	var fleet api.FleetHealth
	waitFor("router /healthz", func() bool {
		status, err := getJSON(client, base+"/healthz", &fleet)
		return err == nil && status == http.StatusOK
	})
	if fleet.Status != "ok" || fleet.Shards != 2 || fleet.Healthy != 2 {
		t.Fatalf("fleet health %+v, want 2 healthy shards of 2", fleet)
	}

	// Every response is traced end to end: the ID at the fleet edge, the
	// worker's stage breakdown, the router's own attempts.
	_, hdr := classify(7)
	if !obs.ValidTraceID(hdr.Get(obs.TraceHeader)) {
		t.Errorf("trace header %q", hdr.Get(obs.TraceHeader))
	}
	if spans, err := obs.ParseSpans(hdr.Get(obs.SpansHeader)); err != nil || !hasSpan(spans, "backend") {
		t.Errorf("worker spans %q (%v), want a backend span", hdr.Get(obs.SpansHeader), err)
	}
	if spans, err := obs.ParseSpans(hdr.Get(obs.RouterSpansHeader)); err != nil || !hasSpan(spans, "attempt0") {
		t.Errorf("router spans %q (%v), want an attempt0 span", hdr.Get(obs.RouterSpansHeader), err)
	}

	// Kill one worker hard: traffic fails over to the survivor, and the
	// supervisor respawns the dead one without operator action.
	workers := childPIDs(t, router.Process.Pid)
	if len(workers) != 2 {
		t.Fatalf("router has %d child processes, want its 2 workers", len(workers))
	}
	if err := syscall.Kill(workers[0], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	classify(8)
	var rep shard.StatsReport
	waitFor("the killed worker to be respawned and re-admitted", func() bool {
		if status, err := getJSON(client, base+"/stats", &rep); err != nil || status != http.StatusOK {
			return false
		}
		return rep.Restarts == 1 && rep.HealthyShards == 2
	})
	classify(9)

	// Merged stats aggregate the whole fleet, with exact histogram quantiles.
	if _, err := getJSON(client, base+"/stats", &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 2 || rep.Aggregate.Shards != 2 || rep.Aggregate.LatencyHist == nil || rep.Proxied < 3 {
		t.Errorf("stats report: %d shards, aggregate over %d, hist %v, proxied %d",
			len(rep.Shards), rep.Aggregate.Shards, rep.Aggregate.LatencyHist != nil, rep.Proxied)
	}
	// The Prometheus view of the same fleet: completions in the aggregate,
	// and the SIGKILL flipped the dead shard's breaker (the opens counter
	// survives its respawn and re-admission).
	fams := scrape(t, client, base)
	if v := sample(t, fams, "hybridnet_requests_completed_total"); v < 1 {
		t.Errorf("fleet completed_total %v, want ≥ 1", v)
	}
	if v := sample(t, fams, "hybridnet_router_healthy_shards"); v != 2 {
		t.Errorf("router_healthy_shards %v, want 2", v)
	}
	var opens, restarts float64
	for _, sh := range rep.Shards {
		id := strconv.Itoa(sh.ID)
		opens += sample(t, fams, "hybridnet_shard_breaker_opens_total", "shard", id)
		restarts += sample(t, fams, "hybridnet_shard_restarts_total", "shard", id)
		// Both workers (one of them respawned) expose the same families on
		// their own /metrics, at the URLs the report names.
		wf := scrape(t, client, sh.URL)
		sample(t, wf, "hybridnet_requests_submitted_total")
		if wf["hybridnet_build_info"] == nil || wf["hybridnet_request_latency_seconds"] == nil {
			t.Errorf("worker %s /metrics lacks build info or the latency histogram", sh.URL)
		}
	}
	if opens < 1 || restarts != 1 {
		t.Errorf("breaker opens %v restarts %v across shards, want ≥ 1 and exactly 1", opens, restarts)
	}
	// The merged flight recorder answers for the whole fleet.
	var dump obs.RecorderDump
	if _, err := getJSON(client, base+"/debug/requests", &dump); err != nil || len(dump.Slowest) == 0 || len(dump.Recent) == 0 {
		t.Errorf("fleet flight recorder: %v, %d slowest, %d recent", err, len(dump.Slowest), len(dump.Recent))
	}

	// Clean SIGTERM drain of router + both (one respawned) workers.
	if err := router.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	stopped = true
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("router exit after SIGTERM: %v, want status 0", err)
		}
	case <-time.After(60 * time.Second):
		syscall.Kill(-router.Process.Pid, syscall.SIGKILL)
		t.Fatal("router still running 60s after SIGTERM")
	}
	for _, pid := range childPIDs(t, router.Process.Pid) {
		t.Errorf("worker pid %d outlived the router's drain", pid)
	}
}

// buildBinaries compiles the module's commands at pkgs (e.g. "cmd/hybridnetd")
// into a fresh directory, each named after its last path element, and
// returns the directory.
func buildBinaries(t *testing.T, pkgs ...string) string {
	t.Helper()
	bin := t.TempDir()
	for _, pkg := range pkgs {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, filepath.Base(pkg)), "repro/"+pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return bin
}

// freeAddr returns a loopback address that nothing listened on a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func getJSON(client *http.Client, url string, v any) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads base's /metrics through obs.ParsePrometheus.
func scrape(t *testing.T, client *http.Client, base string) map[string]*obs.MetricFamily {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(string(raw))
	if err != nil {
		t.Fatalf("%s/metrics does not parse: %v", base, err)
	}
	return fams
}

// sample returns the value of family name's series whose labels are
// exactly the given name/value pairs.
func sample(t *testing.T, fams map[string]*obs.MetricFamily, name string, labels ...string) float64 {
	t.Helper()
	f := fams[name]
	if f == nil {
		t.Fatalf("metric family %s missing", name)
	}
samples:
	for _, s := range f.Samples {
		if len(s.Labels) != len(labels)/2 {
			continue
		}
		for i := 0; i+1 < len(labels); i += 2 {
			if s.Labels[labels[i]] != labels[i+1] {
				continue samples
			}
		}
		return s.Value
	}
	t.Fatalf("metric %s has no series with labels %v", name, labels)
	return 0
}

func hasSpan(spans []obs.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// childPIDs lists the live (non-zombie) processes whose parent is ppid,
// from /proc/*/stat: "pid (comm) state ppid …", comm possibly holding
// spaces and parentheses, so the fields are counted from the last ')'.
func childPIDs(t *testing.T, ppid int) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the process exited between the glob and the read
		}
		line := string(raw)
		rest := strings.Fields(line[strings.LastIndexByte(line, ')')+1:])
		if len(rest) < 2 || rest[0] == "Z" || rest[1] != strconv.Itoa(ppid) {
			continue
		}
		pid, err := strconv.Atoi(filepath.Base(filepath.Dir(path)))
		if err != nil {
			t.Fatalf("pid of %s: %v", path, err)
		}
		pids = append(pids, pid)
	}
	return pids
}
