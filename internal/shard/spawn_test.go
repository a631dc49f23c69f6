package shard

import (
	"context"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSpawnSupervisesRealWorkers is the process-level acceptance drill for
// the self-healing fleet: the router builds and spawns two real hybridnetd
// demo workers, learns their kernel-assigned ports from the stdout report,
// serves through them, and — after one worker is SIGKILLed — recovers to a
// 2-shard serving fleet without operator action: traffic fails over while
// the supervisor respawns the worker on a fresh port and the breaker
// re-admits it. SIGTERM then drains the whole fleet.
func TestSpawnSupervisesRealWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	bin := filepath.Join(t.TempDir(), "hybridnetd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/hybridnetd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hybridnetd: %v\n%s", err, out)
	}

	cfg := testConfig()
	cfg.RestartBackoff = 50 * time.Millisecond
	router, err := Spawn(bin, 2, []string{"-demo", "-size", "32"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return router.Shutdown(ctx)
	}
	defer shutdown()

	readyCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Mux())
	defer front.Close()

	client := front.Client()
	for i := 0; i < 6; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatalf("pre-kill request %d: %v", i, err)
		}
	}

	// SIGKILL one worker — no drain, no warning, like an OOM kill. Traffic
	// must keep succeeding throughout (failover covers the gap until the
	// supervisor's respawn rejoins).
	victim := router.shards[0].currentProc()
	oldURL := router.shards[0].base()
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim reaped", victim.exited)
	for i := 0; i < 6; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatalf("post-kill request %d: %v", i, err)
		}
	}

	// Self-healing: the fleet returns to 2 serving shards on its own.
	waitFor(t, "killed worker respawned and re-admitted", func() bool {
		rep := router.Report(context.Background())
		return rep.Shards[0].Restarts >= 1 && rep.Shards[0].Healthy && rep.Shards[1].Healthy
	})
	if np := router.shards[0].currentProc(); np == victim {
		t.Fatal("shard 0 still holds the killed process")
	}
	if router.shards[0].base() == oldURL {
		t.Logf("respawned worker reused %s (kernel handed the port back)", oldURL)
	}
	for i := 0; i < 6; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatalf("post-respawn request %d: %v", i, err)
		}
	}

	// Both shards carry stats again, the aggregate covers the whole fleet,
	// and the fleet latency quantiles come from merged histograms.
	rep := router.Report(context.Background())
	for _, s := range rep.Shards {
		if s.Stats == nil {
			t.Fatalf("shard %d has no stats after recovery: %s", s.ID, s.Error)
		}
	}
	if rep.Aggregate.Shards != 2 {
		t.Fatalf("aggregate shard count %d, want 2", rep.Aggregate.Shards)
	}
	if rep.Aggregate.LatencyHist == nil ||
		rep.Aggregate.LatencyHist.Count() != rep.Aggregate.Completed {
		t.Fatalf("aggregate histogram missing or inconsistent: hist=%v completed=%d",
			rep.Aggregate.LatencyHist, rep.Aggregate.Completed)
	}

	// Clean SIGTERM drain of both (respawned) workers.
	if err := shutdown(); err != nil {
		t.Fatalf("fleet shutdown: %v", err)
	}
	for i, s := range router.shards {
		proc := s.currentProc()
		waitFor(t, "worker exited", proc.exited)
		if err := proc.waitError(); err != nil {
			t.Fatalf("worker %d exit status: %v", i, err)
		}
	}
}
