package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeMetrics GETs and parses the Prometheus exposition at base/metrics.
func scrapeMetrics(t *testing.T, base string) map[string]*obs.MetricFamily {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type %q, want text/plain exposition", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(string(raw))
	if err != nil {
		t.Fatalf("router /metrics does not parse: %v\n%s", err, raw)
	}
	return fams
}

// shardSample finds the series of family name whose "shard" label is id.
func shardSample(t *testing.T, fams map[string]*obs.MetricFamily, name, id string) float64 {
	t.Helper()
	f := fams[name]
	if f == nil {
		t.Fatalf("family %s missing", name)
	}
	for _, s := range f.Samples {
		if s.Labels["shard"] == id {
			return s.Value
		}
	}
	t.Fatalf("family %s has no series for shard=%q: %+v", name, id, f.Samples)
	return 0
}

func singleValue(t *testing.T, fams map[string]*obs.MetricFamily, name string) float64 {
	t.Helper()
	f := fams[name]
	if f == nil || len(f.Samples) == 0 {
		t.Fatalf("family %s missing from router /metrics", name)
	}
	return f.Samples[0].Value
}

// TestRouterTracePropagation pins the fleet-edge trace contract: the client's
// trace ID rides X-Hybridnet-Trace to the worker and back, the router's own
// attempt spans go out in X-Hybridnet-Router-Spans, and the winning worker's
// X-Hybridnet-Spans passes through untouched — so one request yields the
// full two-tier breakdown.
func TestRouterTracePropagation(t *testing.T) {
	a := startTestWorker(t)
	_, front := newTestRouter(t, testConfig(), a)

	req, err := http.NewRequest(http.MethodPost, front.URL+"/classify",
		strings.NewReader(`{"sign":"stop","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "cli-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "cli-42" {
		t.Errorf("client trace not propagated back: %q", got)
	}
	if got, _ := a.lastTrace.Load().(string); got != "cli-42" {
		t.Errorf("worker received trace %q, want cli-42", got)
	}
	routerSpans, err := obs.ParseSpans(resp.Header.Get(obs.RouterSpansHeader))
	if err != nil {
		t.Fatalf("router spans %q: %v", resp.Header.Get(obs.RouterSpansHeader), err)
	}
	names := map[string]bool{}
	for _, s := range routerSpans {
		names[s.Name] = true
	}
	if !names["read"] || !names["attempt0"] {
		t.Errorf("router spans missing read/attempt0: %q", resp.Header.Get(obs.RouterSpansHeader))
	}
	workerSpans, err := obs.ParseSpans(resp.Header.Get(obs.SpansHeader))
	if err != nil || len(workerSpans) != 2 {
		t.Errorf("worker spans not forwarded: %q (%v)", resp.Header.Get(obs.SpansHeader), err)
	}

	// No client trace: the router mints a valid one at the fleet edge, and
	// that same ID reaches the worker.
	resp, err = http.Post(front.URL+"/classify", "application/json",
		strings.NewReader(`{"sign":"stop","seed":2}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(minted) {
		t.Errorf("minted trace %q invalid", minted)
	}
	if got, _ := a.lastTrace.Load().(string); got != minted {
		t.Errorf("worker saw trace %q, router minted %q", got, minted)
	}
}

// TestRouterMetricsAndBreakerFlip is the Prometheus view of the failover
// drill: the fleet aggregate and router counters are exposed, per-shard
// series carry a shard label, and killing a worker flips its breaker gauges
// on the next scrape.
func TestRouterMetricsAndBreakerFlip(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	_, front := newTestRouter(t, testConfig(), a, b)

	client := &http.Client{Timeout: 5 * time.Second}
	const n = 10
	for i := 0; i < n; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatal(err)
		}
	}

	fams := scrapeMetrics(t, front.URL)
	if got := singleValue(t, fams, "hybridnet_router_proxied_total"); got != n {
		t.Errorf("proxied_total = %v, want %d", got, n)
	}
	served := float64(a.classified.Load() + b.classified.Load())
	if got := singleValue(t, fams, "hybridnet_requests_completed_total"); got != served {
		t.Errorf("fleet completed_total = %v, workers served %v", got, served)
	}
	if got := singleValue(t, fams, "hybridnet_router_healthy_shards"); got != 2 {
		t.Errorf("healthy_shards = %v, want 2", got)
	}
	for _, id := range []string{"0", "1"} {
		if got := shardSample(t, fams, "hybridnet_shard_healthy", id); got != 1 {
			t.Errorf("shard %s healthy = %v, want 1", id, got)
		}
		if got := shardSample(t, fams, "hybridnet_shard_breaker_open", id); got != 0 {
			t.Errorf("shard %s breaker_open = %v, want 0", id, got)
		}
	}

	// Kill worker 0 and wait for its breaker to open; the scrape must show
	// the flip.
	a.Stop()
	waitFor(t, "breaker open on shard 0", func() bool {
		rep := routerReport(t, front.URL)
		return !rep.Shards[0].Healthy && rep.Shards[0].BreakerOpens >= 1
	})
	fams = scrapeMetrics(t, front.URL)
	if got := shardSample(t, fams, "hybridnet_shard_breaker_open", "0"); got != 1 {
		t.Errorf("dead shard breaker_open = %v, want 1", got)
	}
	if got := shardSample(t, fams, "hybridnet_shard_breaker_opens_total", "0"); got < 1 {
		t.Errorf("dead shard breaker_opens_total = %v, want >= 1", got)
	}
	if got := shardSample(t, fams, "hybridnet_shard_healthy", "1"); got != 1 {
		t.Errorf("surviving shard healthy = %v, want 1", got)
	}
	if got := singleValue(t, fams, "hybridnet_router_healthy_shards"); got != 1 {
		t.Errorf("healthy_shards after kill = %v, want 1", got)
	}
}

// TestRouterDebugRequestsMerged: the router's /debug/requests merges its own
// flight recorder with every reachable shard's dump — the worker sentinels
// dominate the slowest set while the router's own traces fill the recent
// ring.
func TestRouterDebugRequestsMerged(t *testing.T) {
	a := startTestWorker(t)
	b := startTestWorker(t)
	_, front := newTestRouter(t, testConfig(), a, b)

	client := &http.Client{Timeout: 5 * time.Second}
	const n = 6
	for i := 0; i < n; i++ {
		if err := classifyOK(client, front.URL); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(front.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.RecorderDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Router recorded n traces; each worker dump contributes its 1 sentinel.
	if want := uint64(n + 2); dump.Total != want {
		t.Errorf("merged total %d, want %d", dump.Total, want)
	}
	if len(dump.Slowest) < 2 ||
		!strings.HasPrefix(dump.Slowest[0].ID, "wk-") || !strings.HasPrefix(dump.Slowest[1].ID, "wk-") {
		t.Errorf("worker sentinels (1h traces) not heading the merged slowest set: %+v", dump.Slowest)
	}
	routerTraces := 0
	for _, r := range dump.Recent {
		if obs.ValidTraceID(r.ID) && !strings.HasPrefix(r.ID, "wk-") {
			routerTraces++
			if len(r.Spans) == 0 || r.Status != http.StatusOK {
				t.Errorf("router trace %s incomplete: status=%d spans=%d", r.ID, r.Status, len(r.Spans))
			}
		}
	}
	if routerTraces == 0 {
		t.Error("merged recent ring has no router-side traces")
	}

	// A dead shard contributes nothing but does not break the merge.
	a.Stop()
	resp, err = http.Get(front.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dump2 obs.RecorderDump
	if err := json.NewDecoder(resp.Body).Decode(&dump2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := uint64(n + 1); dump2.Total != want {
		t.Errorf("merged total with one dead shard %d, want %d", dump2.Total, want)
	}
}
