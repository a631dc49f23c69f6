package shard

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/api"
)

// supervisorTestConfig tightens the restart knobs so backoff-budget
// behaviour is observable in milliseconds.
func supervisorTestConfig() Config {
	cfg := testConfig()
	cfg.RestartBackoff = 10 * time.Millisecond
	cfg.RestartBackoffMax = 100 * time.Millisecond
	cfg.RestartMax = 3
	return cfg
}

// writeWorkerScript creates a stand-in worker binary: a shell script that
// reports one of the given HTTP addresses (picked by run count, matching
// Spawn's sequential start order) and then idles until SIGTERM. The HTTP
// planes live in-process (testWorker), so the script is pure lifecycle —
// SIGKILLing it simulates worker death without the cost of real hybridnetd
// processes. Creating the "fail" file makes every later run exit before
// reporting, which is how the tests exhaust the restart budget.
func writeWorkerScript(t *testing.T, dir string, addrs ...string) string {
	t.Helper()
	script := filepath.Join(dir, "worker.sh")
	body := "#!/bin/sh\ntrap 'exit 0' TERM INT\n"
	body += fmt.Sprintf("n=$(cat %s/count 2>/dev/null || echo 0)\n", dir)
	body += fmt.Sprintf("echo $((n+1)) > %s/count\n", dir)
	body += fmt.Sprintf("if [ -e %s/fail ]; then exit 1; fi\n", dir)
	for i, a := range addrs {
		body += fmt.Sprintf("if [ \"$n\" = \"%d\" ]; then echo \"HYBRIDNETD_ADDR=%s\"; fi\n", i, a)
	}
	// Runs beyond the scripted list reuse the last address (respawns).
	body += fmt.Sprintf("if [ \"$n\" -ge \"%d\" ]; then echo \"HYBRIDNETD_ADDR=%s\"; fi\n",
		len(addrs), addrs[len(addrs)-1])
	body += "while :; do sleep 1; done\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	return script
}

// TestSupervisorRespawnsKilledWorker: SIGKILL a spawned worker and the
// supervisor must bring it back within the backoff budget — the respawn
// counter ticks, the shard stays (or returns) healthy, and traffic flows.
// Run under -race: the supervisor rewrites shard state the proxy path reads.
func TestSupervisorRespawnsKilledWorker(t *testing.T) {
	w := startTestWorker(t)
	script := writeWorkerScript(t, t.TempDir(), w.addr)
	router, err := Spawn(script, 1, nil, supervisorTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	front := newSpawnedFront(t, router)

	client := &http.Client{Timeout: 5 * time.Second}
	if err := classifyOK(client, front); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		victim := router.shards[0].currentProc()
		if err := victim.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "victim reaped", victim.exited)
		waitFor(t, fmt.Sprintf("respawn %d", round), func() bool {
			return router.shards[0].restarts.Load() >= uint64(round)
		})
		if np := router.shards[0].currentProc(); np == victim {
			t.Fatal("shard still holds the dead process after respawn")
		}
		if err := classifyOK(client, front); err != nil {
			t.Fatalf("post-respawn request (round %d): %v", round, err)
		}
		rep := routerReport(t, front)
		if rep.Shards[0].Restarts != uint64(round) || rep.Shards[0].PermanentlyDown {
			t.Fatalf("round %d: shard status %+v", round, rep.Shards[0])
		}
	}
}

// TestSupervisorExhaustionMarksPermanentlyDown: when every respawn attempt
// fails, the shard must be marked permanently down after RestartMax
// consecutive attempts — without crashing the router, which keeps serving
// through the surviving shard, and without dropping the dead shard from the
// fleet aggregate.
func TestSupervisorExhaustionMarksPermanentlyDown(t *testing.T) {
	wA := startTestWorker(t)
	wB := startTestWorker(t)
	dir := t.TempDir()
	script := writeWorkerScript(t, dir, wA.addr, wB.addr)
	cfg := supervisorTestConfig()
	router, err := Spawn(script, 2, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := newSpawnedFront(t, router)

	client := &http.Client{Timeout: 5 * time.Second}
	if err := classifyOK(client, front); err != nil {
		t.Fatal(err)
	}

	// Every future script run dies before reporting an address, and shard
	// 0's HTTP plane goes with its process — a total worker loss.
	if err := os.WriteFile(filepath.Join(dir, "fail"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wA.Stop()
	victim := router.shards[0].currentProc()
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "shard 0 permanently down", func() bool {
		return routerReport(t, front).Shards[0].PermanentlyDown
	})
	// The router keeps serving through shard 1.
	for i := 0; i < 5; i++ {
		if err := classifyOK(client, front); err != nil {
			t.Fatalf("request after exhaustion: %v", err)
		}
	}
	rep := routerReport(t, front)
	if rep.Shards[0].Healthy {
		t.Fatal("permanently-down shard still marked healthy")
	}
	if rep.Aggregate.Shards != 2 {
		t.Fatalf("aggregate shard count %d after worker loss, want the fleet size 2", rep.Aggregate.Shards)
	}
	// /healthz reports the loss without degrading (one shard is healthy).
	resp, err := client.Get(front + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health api.FleetHealth
	decodeJSONBody(t, resp, &health)
	if resp.StatusCode != http.StatusOK || health.Shards != 2 || health.Healthy != 1 || health.Down != 1 {
		t.Fatalf("healthz status %d body %+v, want 200 with 2 shards / 1 healthy / 1 down",
			resp.StatusCode, health)
	}
}

// TestSupervisorDisabled: RestartMax < 0 restores the pre-supervisor
// behaviour — a killed worker stays dead and only the breaker reacts.
func TestSupervisorDisabled(t *testing.T) {
	w := startTestWorker(t)
	script := writeWorkerScript(t, t.TempDir(), w.addr)
	cfg := supervisorTestConfig()
	cfg.RestartMax = -1
	router, err := Spawn(script, 1, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	newSpawnedFront(t, router) // registers shutdown cleanup

	victim := router.shards[0].currentProc()
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim reaped", victim.exited)
	// Give a would-be supervisor several backoff periods to act, then
	// confirm nothing did.
	time.Sleep(10 * cfg.RestartBackoff)
	if got := router.shards[0].restarts.Load(); got != 0 {
		t.Fatalf("respawns happened with supervision disabled: %d", got)
	}
	if router.shards[0].currentProc() != victim {
		t.Fatal("process replaced with supervision disabled")
	}
}
