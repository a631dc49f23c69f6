package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/worker"
)

// failingBackend fails every batch, which the worker surfaces as a 500.
type failingBackend struct{}

func (failingBackend) ClassifyBatch([]*tensor.Tensor) ([]core.Result, error) {
	return nil, errors.New("backend down")
}

// startWorker serves a real worker.Server over backend.
func startWorker(t *testing.T, backend serve.Backend) string {
	t.Helper()
	sched, err := serve.New(backend, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(worker.New(sched, 10*time.Second, 32, serve.ClassGuaranteed, nil, obs.NewTraceSink(nil, "request", 8, 0)).Mux())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sched.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
	})
	return srv.URL
}

// decodeStrict decodes the response body into v and fails on any field the
// api type does not declare, on trailing data, and on an unexpected status:
// what the servers send and what the contract says cannot drift apart.
func decodeStrict(t *testing.T, resp *http.Response, err error, wantStatus int, v any) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d", resp.Request.URL, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", resp.Request.URL, ct)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: body does not match %T: %v", resp.Request.URL, v, err)
	}
	if dec.More() {
		t.Errorf("%s: trailing data after the %T", resp.Request.URL, v)
	}
}

func post(url string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.Post(url+"/classify", "application/json", bytes.NewReader(raw))
}

// TestWireContractRoundTrip: every JSON body the real worker and the real
// router put on the wire decodes, with unknown fields disallowed, into the
// api type that names it — /classify 200, 400 and 500, the worker's
// /healthz, and the router's /classify and /healthz over that worker.
func TestWireContractRoundTrip(t *testing.T) {
	h, _, err := cli.DemoHybrid(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := h.NewBatchClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	good := startWorker(t, bc)
	broken := startWorker(t, failingBackend{})
	stop := api.ClassifyRequest{Sign: "stop", Seed: 7}

	var ok api.ClassifyResponse
	resp, err := post(good, stop)
	decodeStrict(t, resp, err, http.StatusOK, &ok)
	if ok.ClassName == "" || ok.Decision == "" || ok.ServiceClass != "guaranteed" || ok.ReliableOps == 0 {
		t.Errorf("incomplete classify response: %+v", ok)
	}

	var fail api.ErrorResponse
	resp, err = post(good, api.ClassifyRequest{Sign: "no-such-sign"})
	decodeStrict(t, resp, err, http.StatusBadRequest, &fail)
	if !strings.Contains(fail.Error, "no-such-sign") {
		t.Errorf("400 body %+v does not name the bad sign", fail)
	}
	fail = api.ErrorResponse{}
	resp, err = post(broken, stop)
	decodeStrict(t, resp, err, http.StatusInternalServerError, &fail)
	if !strings.Contains(fail.Error, "backend down") {
		t.Errorf("500 body %+v does not carry the backend error", fail)
	}

	var health api.Health
	resp, err = http.Get(good + "/healthz")
	decodeStrict(t, resp, err, http.StatusOK, &health)
	if health.Status != "ok" || health.Build.GemmKernel == "" || health.Build.GoArch == "" ||
		len(health.ClassQueueDepths) != serve.NumClasses || health.ServiceNS <= 0 {
		t.Errorf("incomplete worker health: %+v", health)
	}
	// The build block names the compute substrate and nothing else: the
	// GEMM kernel and the host, no parallelism knob.
	raw, err := json.Marshal(health.Build)
	if err != nil {
		t.Fatal(err)
	}
	var build map[string]any
	if err := json.Unmarshal(raw, &build); err != nil {
		t.Fatal(err)
	}
	buildKeys := map[string]bool{}
	for k := range build {
		buildKeys[k] = true
	}
	if got, want := strings.Join(sorted(buildKeys), " "), "cpu_features gemm_kernel go_arch gomaxprocs num_cpu"; got != want {
		t.Errorf("/healthz build keys %q, want %q", got, want)
	}

	router, err := shard.New([]string{good}, shard.Config{
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Mux())
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := router.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	var fleet api.FleetHealth
	resp, err = http.Get(front.URL + "/healthz")
	decodeStrict(t, resp, err, http.StatusOK, &fleet)
	if fleet.Status != "ok" || fleet.Shards != 1 || fleet.Healthy != 1 || fleet.Down != 0 ||
		len(fleet.ClassQueueDepths) != serve.NumClasses {
		t.Errorf("router health %+v, want 1 healthy shard of 1 with the class split it probed", fleet)
	}
	var proxied api.ClassifyResponse
	resp, err = post(front.URL, stop)
	decodeStrict(t, resp, err, http.StatusOK, &proxied)
	if proxied.Class != ok.Class || proxied.Decision != ok.Decision {
		t.Errorf("proxied answer %+v differs from the worker's own %+v", proxied, ok)
	}
	fail = api.ErrorResponse{}
	resp, err = http.Get(front.URL + "/classify")
	decodeStrict(t, resp, err, http.StatusMethodNotAllowed, &fail)
	if fail.Error == "" {
		t.Error("router 405 carries no error message")
	}
}

// okBackend answers every image at once.
type okBackend struct{}

func (okBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	return make([]core.Result, len(imgs)), nil
}

// TestStatsKeySet pins the JSON key set of /stats on both tiers at every
// nesting level (array elements merged under "[]"), after traffic in every
// class, so a field moved between the aggregate ledger, the class ledgers
// and the batch-level block cannot add, drop or rename a key.
func TestStatsKeySet(t *testing.T) {
	good := startWorker(t, okBackend{})
	router, err := shard.New([]string{good}, shard.Config{HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Mux())
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := router.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	for _, c := range serve.Classes {
		req, err := http.NewRequest(http.MethodPost, front.URL+"/classify", strings.NewReader(`{"sign":"stop","seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.ClassHeader, c.String())
		var ok api.ClassifyResponse
		resp, err := http.DefaultClient.Do(req)
		decodeStrict(t, resp, err, http.StatusOK, &ok)
	}
	keys := func(url string) []string {
		t.Helper()
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		var walk func(path string, v any)
		walk = func(path string, v any) {
			switch v := v.(type) {
			case map[string]any:
				for k, x := range v {
					set[path+k] = true
					walk(path+k+".", x)
				}
			case []any:
				for _, x := range v {
					walk(strings.TrimSuffix(path, ".")+"[].", x)
				}
			}
		}
		walk("", body)
		return sorted(set)
	}
	// The expected sets, built from the blocks they nest.
	prefixed := func(prefix string, names ...string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = prefix + n
		}
		return out
	}
	hist := func(name string) []string {
		return append([]string{name}, prefixed(name+".", "counts", "max_ns", "sum_ns", "total")...)
	}
	ledger := []string{"submitted", "rejected", "expired", "expired_dispatched", "completed", "failed", "degraded",
		"queue_depth", "queue_cap", "latency_count", "latency_p50_ns", "latency_p99_ns", "latency_max_ns",
		"stage_reliable_ns", "stage_qualifier_ns", "stage_cnn_ns"}
	ledger = append(append(ledger, hist("latency_hist")...), hist("queue_hist")...)
	stats := append([]string{"shards", "batches", "mean_batch", "batch_hist", "service_ns", "backend_busy_ns",
		"uptime_ns", "classes", "classes[].class"}, hist("backend_hist")...)
	stats = append(append(stats, ledger...), prefixed("classes[].", ledger...)...)
	fleet := []string{"aggregate", "shards", "proxied", "failovers", "errors", "healthy_shards", "permanently_down",
		"restarts", "breaker_opens", "breaker_closes", "shards[].stats"}
	fleet = append(fleet, prefixed("shards[].", "id", "url", "healthy", "service_ns", "inflight",
		"queue_depth", "class_queue_depths", "class_queue_depths.guaranteed", "class_queue_depths.fast",
		"class_queue_depths.budget", "breaker_opens", "breaker_closes", "restarts")...)
	fleet = append(append(fleet, prefixed("aggregate.", stats...)...), prefixed("shards[].stats.", stats...)...)
	set := func(names []string) []string {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return sorted(m)
	}
	for _, tier := range []struct {
		name, url string
		want      []string
	}{{"worker", good, set(stats)}, {"router", front.URL, set(fleet)}} {
		if got := keys(tier.url); strings.Join(got, " ") != strings.Join(tier.want, " ") {
			t.Errorf("%s /stats keys:\n got %v\nwant %v", tier.name, got, tier.want)
		}
	}
}

func sorted(set map[string]bool) []string {
	list := make([]string, 0, len(set))
	for k := range set {
		list = append(list, k)
	}
	sort.Strings(list)
	return list
}
