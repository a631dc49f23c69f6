package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/serve"
)

// testWorker is an in-process stand-in for a hybridnetd worker: the same
// three endpoints, counters wired so /stats is internally consistent, and a
// Stop/Restart cycle on a stable address so breaker re-admission is
// testable.
type testWorker struct {
	t     *testing.T
	addr  string
	depth atomic.Int64 // queue depth reported by /healthz
	delay atomic.Int64 // per-classify latency, ns
	svc   atomic.Int64 // service_ns reported by /healthz (adaptive placement)
	bloat atomic.Bool  // answer /classify with a 2 MiB body

	mu  sync.Mutex
	srv *http.Server

	classified atomic.Uint64
	lastTrace  atomic.Value // last X-Hybridnet-Trace the worker received
}

func startTestWorker(t *testing.T) *testWorker {
	t.Helper()
	w := &testWorker{t: t}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.addr = ln.Addr().String()
	w.serveOn(ln)
	t.Cleanup(w.Stop)
	return w
}

func (w *testWorker) serveOn(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if d := w.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		w.classified.Add(1)
		// Echo the propagated trace and a worker span breakdown, like the
		// real hybridnetd does.
		if tr := r.Header.Get(obs.TraceHeader); tr != "" {
			w.lastTrace.Store(tr)
			rw.Header().Set(obs.TraceHeader, tr)
		}
		rw.Header().Set(obs.SpansHeader, "queue;dur=0.100,backend;dur=0.500")
		if w.bloat.Load() {
			rw.Write(bytes.Repeat([]byte("x"), 2<<20))
			return
		}
		api.WriteJSON(rw, http.StatusOK, api.ClassifyResponse{Class: 14, Decision: "accept"})
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		api.WriteJSON(rw, http.StatusOK, api.Health{
			Status: "ok", QueueDepth: w.depth.Load(), ServiceNS: w.svc.Load(),
			ClassQueueDepths: map[string]int64{"guaranteed": w.depth.Load(), "fast": 0, "budget": 0},
		})
	})
	mux.HandleFunc("/stats", func(rw http.ResponseWriter, r *http.Request) {
		n := w.classified.Load()
		hist := serve.NewHistogram()
		for i := uint64(0); i < n; i++ {
			hist.Observe(time.Millisecond)
		}
		ledger := serve.Counts{
			Submitted: n, Completed: n,
			LatencyCount: int(n), LatencyP50: hist.Quantile(0.50),
			LatencyP99: hist.Quantile(0.99), LatencyMax: hist.Max(),
			LatencyHist: hist,
		}
		st := serve.Stats{
			Shards: 1, Counts: ledger, Batches: n,
			BatchHist: []uint64{n},
			Uptime:    time.Second,
			Classes:   []serve.ClassStats{{Class: "guaranteed", Counts: ledger}},
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(st)
	})
	mux.HandleFunc("/debug/requests", func(rw http.ResponseWriter, r *http.Request) {
		// One very slow sentinel trace per worker, so a merged fleet dump
		// provably includes the shard-side recorders.
		sentinel := obs.TraceRecord{
			ID: "wk-" + w.addr, Start: time.Now().Add(-time.Minute),
			Status: 200, Total: time.Hour,
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(obs.RecorderDump{
			Depth: 1, Total: 1,
			Recent:  []obs.TraceRecord{sentinel},
			Slowest: []obs.TraceRecord{sentinel},
		})
	})
	srv := &http.Server{Handler: mux}
	w.mu.Lock()
	w.srv = srv
	w.mu.Unlock()
	go srv.Serve(ln)
}

// Stop kills the worker hard: listener and live connections close at once,
// like a SIGKILLed process.
func (w *testWorker) Stop() {
	w.mu.Lock()
	srv := w.srv
	w.srv = nil
	w.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Restart rebinds the same address, like a supervisor bringing the worker
// back.
func (w *testWorker) Restart() {
	w.t.Helper()
	ln, err := net.Listen("tcp", w.addr)
	if err != nil {
		w.t.Fatalf("restart %s: %v", w.addr, err)
	}
	w.serveOn(ln)
}

func testConfig() Config {
	return Config{
		HealthInterval:   20 * time.Millisecond,
		BreakerThreshold: 2,
		RequestTimeout:   5 * time.Second,
	}
}

func newTestRouter(t *testing.T, cfg Config, workers ...*testWorker) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.addr
	}
	r, err := New(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Mux())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return r, front
}

// newSpawnedFront mounts an already-Spawned router on a test front-end and
// registers shutdown cleanup, returning the front's base URL.
func newSpawnedFront(t *testing.T, router *Router) string {
	t.Helper()
	front := httptest.NewServer(router.Mux())
	t.Cleanup(func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := router.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := router.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	return front.URL
}

func decodeJSONBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func classifyOK(client *http.Client, url string) error {
	resp, err := client.Post(url+"/classify", "application/json",
		bytes.NewReader([]byte(`{"sign":"stop","seed":1}`)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func routerReport(t *testing.T, front string) StatsReport {
	t.Helper()
	resp, err := http.Get(front + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterFailover is the acceptance drill: two workers under load, one
// dies mid-load, and every client request still succeeds — the router fails
// the dead shard's traffic over, circuit-breaks it, re-admits it after it
// comes back, and the merged /stats stays the exact sum of the per-shard
// counters throughout. Run under -race.
func TestRouterFailover(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	router, front := newTestRouter(t, testConfig(), a, b)

	client := &http.Client{Timeout: 10 * time.Second}
	const (
		goroutines = 8
		perG       = 40
		killAfter  = 10 // per-goroutine requests before the kill point
	)
	var failures atomic.Uint64
	var killOnce sync.Once
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i == killAfter {
					killOnce.Do(a.Stop) // worker A dies mid-load
				}
				if err := classifyOK(client, front.URL); err != nil {
					failures.Add(1)
					t.Errorf("client-visible failure: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures across the worker loss, want 0", n)
	}

	// The breaker must have opened on the dead shard.
	waitFor(t, "breaker open on shard 0", func() bool {
		rep := routerReport(t, front.URL)
		return !rep.Shards[0].Healthy && rep.Shards[0].BreakerOpens >= 1
	})

	// Bring A back: the next successful probe re-admits it.
	a.Restart()
	waitFor(t, "breaker re-close on shard 0", func() bool {
		rep := routerReport(t, front.URL)
		return rep.Shards[0].Healthy && rep.Shards[0].BreakerCloses >= 1
	})

	// A few more requests — the fleet is whole again.
	for i := 0; i < 10; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatalf("post-recovery request: %v", err)
		}
	}

	// Aggregated stats are coherent: the merged totals equal the sum of the
	// per-shard counters, and all client successes are accounted for.
	rep := routerReport(t, front.URL)
	var sumCompleted, sumSubmitted uint64
	for _, s := range rep.Shards {
		if s.Stats == nil {
			t.Fatalf("shard %d missing stats: %s", s.ID, s.Error)
		}
		sumCompleted += s.Stats.Completed
		sumSubmitted += s.Stats.Submitted
	}
	if rep.Aggregate.Completed != sumCompleted || rep.Aggregate.Submitted != sumSubmitted {
		t.Fatalf("aggregate (%d submitted, %d completed) != shard sums (%d, %d)",
			rep.Aggregate.Submitted, rep.Aggregate.Completed, sumSubmitted, sumCompleted)
	}
	// The fleet quantiles come from merged histograms (exact path), and the
	// aggregate counts the whole fleet.
	if rep.Aggregate.LatencyHist == nil || rep.Aggregate.LatencyHist.Count() != sumCompleted {
		t.Fatalf("aggregate latency histogram missing or short: %+v", rep.Aggregate.LatencyHist)
	}
	if rep.Aggregate.Shards != 2 {
		t.Fatalf("aggregate shard count %d, want 2", rep.Aggregate.Shards)
	}
	const totalRequests = goroutines*perG + 10
	if got := a.classified.Load() + b.classified.Load(); got < totalRequests {
		t.Fatalf("workers served %d of %d client requests", got, totalRequests)
	}
	if rep.Failovers == 0 {
		t.Fatal("no failovers recorded — the kill never exercised the failover path")
	}
	if rep.Proxied < totalRequests {
		t.Fatalf("router proxied %d of %d", rep.Proxied, totalRequests)
	}
	t.Logf("failover drill: %d requests, %d failovers, shard0 served %d, shard1 served %d",
		rep.Proxied, rep.Failovers, a.classified.Load(), b.classified.Load())
	_ = router
}

// TestRouterP2CPrefersShortQueue: with one shard reporting a deep scheduler
// queue and the other idle, power-of-two-choices must send everything to
// the idle shard.
func TestRouterP2CPrefersShortQueue(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	a.depth.Store(50)
	_, front := newTestRouter(t, testConfig(), a, b)

	// WaitReady guarantees one probe round, so the router has seen A's depth.
	client := &http.Client{Timeout: 5 * time.Second}
	const n = 40
	for i := 0; i < n; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.classified.Load(); got != 0 {
		t.Fatalf("deep-queue shard served %d requests, want 0", got)
	}
	if got := b.classified.Load(); got != n {
		t.Fatalf("idle shard served %d of %d", got, n)
	}
}

// TestRouterRoundRobinOnTies: equal loads fall back to round-robin, so both
// shards share the traffic instead of one absorbing it all.
func TestRouterRoundRobinOnTies(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	_, front := newTestRouter(t, testConfig(), a, b)

	client := &http.Client{Timeout: 5 * time.Second}
	const n = 40
	for i := 0; i < n; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatal(err)
		}
	}
	na, nb := a.classified.Load(), b.classified.Load()
	if na+nb != n {
		t.Fatalf("served %d+%d of %d", na, nb, n)
	}
	if na == 0 || nb == 0 {
		t.Fatalf("tie traffic not spread: %d vs %d", na, nb)
	}
}

// TestRouterClientAbortIsNotShardFailure: clients that hang up mid-request
// must not advance any circuit breaker — otherwise a few impatient clients
// could circuit-break a perfectly healthy fleet (the router-level twin of
// hybridnetd's 499-vs-503 separation).
func TestRouterClientAbortIsNotShardFailure(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	a.delay.Store(int64(300 * time.Millisecond))
	b.delay.Store(int64(300 * time.Millisecond))
	cfg := testConfig()
	// One initial probe round, then none: nothing resets consecFails behind
	// the test's back, so any breaker bump would stick and be visible.
	cfg.HealthInterval = time.Hour
	_, front := newTestRouter(t, cfg, a, b)

	impatient := &http.Client{Timeout: 25 * time.Millisecond}
	for i := 0; i < 3*cfg.BreakerThreshold; i++ {
		_, err := impatient.Post(front.URL+"/classify", "application/json",
			bytes.NewReader([]byte(`{"sign":"stop"}`)))
		if err == nil {
			t.Fatal("impatient client unexpectedly got a response")
		}
	}
	rep := routerReport(t, front.URL)
	for _, s := range rep.Shards {
		if !s.Healthy || s.BreakerOpens != 0 {
			t.Fatalf("shard %d: healthy=%v opens=%d after client aborts — breaker polluted",
				s.ID, s.Healthy, s.BreakerOpens)
		}
	}
	if rep.Errors != 0 {
		t.Fatalf("router errors %d after client aborts — error stats polluted", rep.Errors)
	}
}

// TestRouterCapsWorkerReply: a worker streaming more than maxWorkerReply is
// a transport failure, not a response — the router stops reading at the
// cap, counts it against the shard's breaker, fails over to the other
// shard, and answers 502 itself when the failover target is as broken.
func TestRouterCapsWorkerReply(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	cfg := testConfig()
	cfg.BreakerThreshold = 1 // the first oversized reply must open the breaker
	r, front := newTestRouter(t, cfg, a, b)
	client := &http.Client{Timeout: 5 * time.Second}

	a.bloat.Store(true)
	for i := 0; i < 10; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatalf("request %d with one bloated shard: %v (want failover to the healthy shard)", i, err)
		}
	}
	rep := r.Report(context.Background())
	if rep.Failovers == 0 || rep.Errors != 0 {
		t.Fatalf("failovers=%d errors=%d, want failovers > 0 and no client-visible error", rep.Failovers, rep.Errors)
	}
	if rep.Shards[0].BreakerOpens == 0 {
		t.Error("oversized replies never opened the bloated shard's breaker")
	}

	b.bloat.Store(true)
	resp, err := client.Post(front.URL+"/classify", "application/json",
		bytes.NewReader([]byte(`{"sign":"stop"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var fail api.ErrorResponse
	decodeJSONBody(t, resp, &fail)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(fail.Error, "exceeds") {
		t.Fatalf("all-bloated fleet: status %d error %q, want 502 naming the oversized reply", resp.StatusCode, fail.Error)
	}
}

// TestRouterAllShardsDown: with the whole fleet gone the client gets a 502
// (after the single failover attempt) and /healthz degrades to 503.
func TestRouterAllShardsDown(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	_, front := newTestRouter(t, testConfig(), a, b)
	a.Stop()
	b.Stop()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(front.URL+"/classify", "application/json",
		bytes.NewReader([]byte(`{"sign":"stop"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("fleet-down classify status %d, want 502", resp.StatusCode)
	}

	waitFor(t, "healthz to degrade", func() bool {
		resp, err := client.Get(front.URL + "/healthz")
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
}

// TestRouterWeightedPlacement: with static capacity weights 1 vs 3 and no
// other load signal, sequential requests must all land on the heavier
// shard — (load+1)/weight is strictly lower there whenever both are idle.
func TestRouterWeightedPlacement(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	cfg := testConfig()
	cfg.Weights = []float64{1, 3}
	_, front := newTestRouter(t, cfg, a, b)

	client := &http.Client{Timeout: 5 * time.Second}
	const n = 30
	for i := 0; i < n; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.classified.Load(); got != n {
		t.Fatalf("weight-3 shard served %d of %d", got, n)
	}
	if got := a.classified.Load(); got != 0 {
		t.Fatalf("weight-1 shard served %d, want 0 while the heavy shard is idle", got)
	}
}

// TestRouterAdaptivePlacement: with AdaptiveWeights on, a shard reporting
// 4× the per-image service time must lose every idle-fleet pick to the
// faster shard — the router equalises expected completion time, not queue
// depth. A shard without an estimate is compared on load alone, so a
// half-measured fleet keeps the old behaviour (pinned by the tie test).
func TestRouterAdaptivePlacement(t *testing.T) {
	slow := startTestWorker(t)
	fast := startTestWorker(t)
	slow.svc.Store(int64(4 * time.Millisecond))
	fast.svc.Store(int64(time.Millisecond))
	cfg := testConfig()
	cfg.AdaptiveWeights = true
	_, front := newTestRouter(t, cfg, slow, fast)

	client := &http.Client{Timeout: 5 * time.Second}
	const n = 30
	for i := 0; i < n; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatal(err)
		}
	}
	if got := fast.classified.Load(); got != n {
		t.Fatalf("fast shard served %d of %d", got, n)
	}
	if got := slow.classified.Load(); got != 0 {
		t.Fatalf("slow shard served %d, want 0 while the fast shard is idle", got)
	}
}

// TestRouterReplaceShard is the attached-worker half of self-healing: the
// router cannot respawn a remote process, so after DownAfter it fires
// OnShardDown, and ReplaceShard installs the replacement URL — which still
// rejoins through the circuit breaker.
func TestRouterReplaceShard(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	replacement := startTestWorker(t)
	notified := make(chan int, 1)
	cfg := testConfig()
	cfg.DownAfter = 50 * time.Millisecond
	cfg.OnShardDown = func(id int, url string) {
		select {
		case notified <- id:
		default:
		}
	}
	router, front := newTestRouter(t, cfg, a, b)

	client := &http.Client{Timeout: 5 * time.Second}
	a.Stop()
	waitFor(t, "OnShardDown for shard 0", func() bool {
		select {
		case id := <-notified:
			return id == 0
		default:
			return false
		}
	})
	// Traffic keeps flowing through the survivor meanwhile.
	if err := classifyOK(client, front.URL); err != nil {
		t.Fatal(err)
	}
	if err := router.ReplaceShard(0, replacement.addr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replacement re-admitted", func() bool {
		rep := routerReport(t, front.URL)
		return rep.Shards[0].Healthy && rep.Shards[0].URL == "http://"+replacement.addr
	})
	// Replacement shard serves: push traffic until it has handled some.
	waitFor(t, "replacement serving", func() bool {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatal(err)
		}
		return replacement.classified.Load() > 0
	})

	// Guard rails: bad ids and URLs are refused.
	if err := router.ReplaceShard(7, replacement.addr); err == nil {
		t.Error("out-of-range shard id accepted")
	}
	if err := router.ReplaceShard(0, ""); err == nil {
		t.Error("empty replacement URL accepted")
	}
}

// TestRouterValidation covers constructor argument checks.
func TestRouterValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New([]string{""}, Config{}); err == nil {
		t.Error("empty URL accepted")
	}
	if _, err := Spawn("/bin/true", 0, nil, Config{}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := New([]string{"127.0.0.1:1", "127.0.0.1:2"}, Config{Weights: []float64{1}}); err == nil {
		t.Error("weight count mismatch accepted")
	}
	if _, err := New([]string{"127.0.0.1:1"}, Config{Weights: []float64{-1}}); err == nil {
		t.Error("non-positive weight accepted")
	}
	// Scheme-less URLs are normalised.
	r, err := New([]string{"127.0.0.1:9/"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.shards[0].url; got != "http://127.0.0.1:9" {
		t.Errorf("normalised URL %q", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
