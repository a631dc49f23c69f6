package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/serve"
)

// classWorker is a worker stand-in for the service-class routing tests:
// it records the class header of every /classify, can be switched into
// load-shedding (503 + Retry-After) mode, and reports a configurable
// per-class queue split on /healthz.
type classWorker struct {
	t          *testing.T
	addr       string
	name       string
	classified atomic.Uint64
	lastClass  atomic.Value // string: most recent X-Hybridnet-Class seen
	shed       atomic.Bool
	depth      atomic.Int64
	classDepth [serve.NumClasses]atomic.Int64
}

func startClassWorker(t *testing.T, name string) *classWorker {
	t.Helper()
	w := &classWorker{t: t, name: name}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.addr = ln.Addr().String()
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.lastClass.Store(r.Header.Get(obs.ClassHeader))
		if w.shed.Load() {
			rw.Header().Set("Retry-After", "17")
			api.WriteJSON(rw, http.StatusServiceUnavailable, api.ErrorResponse{Error: "queue full at " + w.name})
			return
		}
		w.classified.Add(1)
		api.WriteJSON(rw, http.StatusOK, api.ClassifyResponse{Class: 14, ServiceClass: r.Header.Get(obs.ClassHeader)})
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		health := api.Health{Status: "ok", QueueDepth: w.depth.Load(), ClassQueueDepths: make(map[string]int64, serve.NumClasses)}
		for _, c := range serve.Classes {
			health.ClassQueueDepths[c.String()] = w.classDepth[c].Load()
		}
		api.WriteJSON(rw, http.StatusOK, health)
	})
	mux.HandleFunc("/stats", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(serve.Stats{Shards: 1, Uptime: time.Second})
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return w
}

func postClass(t *testing.T, front, class string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, front+"/classify",
		bytes.NewReader([]byte(`{"sign":"stop","seed":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	if class != "" {
		req.Header.Set(obs.ClassHeader, class)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestRouterClassHeader: the class is resolved once at the fleet edge —
// absent header means -default-class, the resolved class is forwarded to
// the worker in canonical form, and an unknown class is a 400 before any
// shard is touched.
func TestRouterClassHeader(t *testing.T) {
	w := startClassWorker(t, "a")
	cfg := testConfig()
	cfg.DefaultClass = serve.ClassFast
	r, err := New([]string{w.addr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownRouter(t, r)
	front := startFront(t, r)

	if status, _, _ := postClass(t, front, ""); status != http.StatusOK {
		t.Fatalf("default-class post: status %d", status)
	}
	if got := w.lastClass.Load(); got != "fast" {
		t.Errorf("worker saw class %q for headerless request, want the router default \"fast\"", got)
	}
	if status, _, _ := postClass(t, front, "budget"); status != http.StatusOK {
		t.Fatalf("budget post: status %d", status)
	}
	if got := w.lastClass.Load(); got != "budget" {
		t.Errorf("worker saw class %q, want \"budget\"", got)
	}
	before := w.classified.Load()
	status, body, _ := postClass(t, front, "premium")
	if status != http.StatusBadRequest || !strings.Contains(body, "premium") {
		t.Errorf("invalid class: status %d body %s, want 400 naming the class", status, body)
	}
	if w.classified.Load() != before {
		t.Errorf("invalid-class request reached a shard")
	}
}

// TestRouterBudgetNeverFailsOver: a shedding shard's 503 fails over for
// guaranteed traffic but is surfaced as-is (Retry-After included) for
// budget traffic — the worker already degraded the request once, and a
// second attempt would spend retry capacity the paying tiers rely on.
func TestRouterBudgetNeverFailsOver(t *testing.T) {
	shedding := startClassWorker(t, "shedder")
	shedding.shed.Store(true)
	healthy := startClassWorker(t, "server")
	r, err := New([]string{shedding.addr, healthy.addr}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownRouter(t, r)
	front := startFront(t, r)

	// Guaranteed: every request must land, whichever shard is tried first.
	for i := 0; i < 20; i++ {
		if status, body, _ := postClass(t, front, "guaranteed"); status != http.StatusOK {
			t.Fatalf("guaranteed request %d: status %d body %s", i, status, body)
		}
	}
	failoversAfterGuaranteed := r.failovers.Load()
	if failoversAfterGuaranteed == 0 {
		t.Fatalf("no guaranteed request was failed over; the shedding shard was never picked first")
	}

	// Budget: requests that hit the shedding shard must come back 503 with
	// the worker's own body and Retry-After — no second attempt.
	var shed, served int
	for i := 0; i < 20; i++ {
		status, body, hdr := postClass(t, front, "budget")
		switch status {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			shed++
			if !strings.Contains(body, "shedder") {
				t.Errorf("budget 503 body %q does not carry the worker's shed marker", body)
			}
			if got := hdr.Get("Retry-After"); got != "17" {
				t.Errorf("budget 503 lost the worker's Retry-After: %q", got)
			}
		default:
			t.Fatalf("budget request %d: status %d body %s", i, status, body)
		}
	}
	if shed == 0 || served == 0 {
		t.Fatalf("budget split shed=%d served=%d; want both behaviours exercised", shed, served)
	}
	if got := r.failovers.Load(); got != failoversAfterGuaranteed {
		t.Errorf("budget phase moved the failover counter %d -> %d; budget must never fail over",
			failoversAfterGuaranteed, got)
	}
}

// TestRouterClassAwarePlacement: placement scores on the class-effective
// backlog (same-or-higher-priority queue depth), so one fleet can look
// different to different tiers: a shard drowning in budget work stays the
// best target for guaranteed traffic while budget traffic steers away from
// it — the opposite of what total queue depth would choose. The fleet
// /healthz and /metrics must expose the per-class split that drives this.
func TestRouterClassAwarePlacement(t *testing.T) {
	// Shard A: huge budget backlog, idle premium queues. Total depth 50.
	a := startClassWorker(t, "a")
	a.depth.Store(50)
	a.classDepth[serve.ClassBudget].Store(50)
	// Shard B: modest guaranteed+fast backlog, no budget. Total depth 8.
	b := startClassWorker(t, "b")
	b.depth.Store(8)
	b.classDepth[serve.ClassGuaranteed].Store(4)
	b.classDepth[serve.ClassFast].Store(4)
	r, err := New([]string{a.addr, b.addr}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownRouter(t, r)
	front := startFront(t, r)

	// The router's own /healthz aggregates the split once probes land.
	waitFor(t, "fleet class_queue_depths", func() bool {
		resp, err := http.Get(front + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var body api.FleetHealth
		if json.NewDecoder(resp.Body).Decode(&body) != nil {
			return false
		}
		d := body.ClassQueueDepths
		return d["guaranteed"] == 4 && d["fast"] == 4 && d["budget"] == 50
	})

	// Guaranteed sees A at depth 0 vs B at 4 → all to A, despite A's far
	// larger total backlog.
	for i := 0; i < 10; i++ {
		if status, _, _ := postClass(t, front, "guaranteed"); status != http.StatusOK {
			t.Fatalf("guaranteed request %d failed", i)
		}
	}
	if got := a.classified.Load(); got != 10 {
		t.Errorf("guaranteed placement: shard a served %d of 10 (b: %d); class-effective load should send all to a",
			got, b.classified.Load())
	}
	// Budget sees A at 50 vs B at 8 → all to B.
	aBefore, bBefore := a.classified.Load(), b.classified.Load()
	for i := 0; i < 10; i++ {
		if status, _, _ := postClass(t, front, "budget"); status != http.StatusOK {
			t.Fatalf("budget request %d failed", i)
		}
	}
	if got := b.classified.Load() - bBefore; got != 10 {
		t.Errorf("budget placement: shard b served %d of 10 (a served %d); budget must steer off the budget-drowned shard",
			got, a.classified.Load()-aBefore)
	}

	// The per-shard split is exported for dashboards.
	resp, err := http.Get(front + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(string(text))
	if err != nil {
		t.Fatalf("router /metrics does not parse: %v", err)
	}
	f := fams["hybridnet_shard_class_queue_depth"]
	if f == nil || len(f.Samples) != 2*serve.NumClasses {
		t.Fatalf("hybridnet_shard_class_queue_depth: want %d samples, have %+v", 2*serve.NumClasses, f)
	}
	var budgetSum float64
	for _, s := range f.Samples {
		if s.Labels["class"] == "budget" {
			budgetSum += s.Value
		}
	}
	if budgetSum != 50 {
		t.Errorf("per-shard budget depth sums to %v, want 50", budgetSum)
	}
}

func startFront(t *testing.T, r *Router) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: r.Mux()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	waitReady(t, r)
	return "http://" + ln.Addr().String()
}

func waitReady(t *testing.T, r *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
}

func shutdownRouter(t *testing.T, r *Router) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Errorf("router shutdown: %v", err)
	}
}
