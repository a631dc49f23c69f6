package obs

import (
	"context"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// goldenStats builds a fully populated serve.Stats with known samples, the
// input to the golden /metrics rendering tests: three class ledgers and
// the batch-level fields, the aggregate derived by serve.Merge as on the
// router. Latency samples 1..100ms split 55/36/9 across
// guaranteed/fast/budget.
func goldenStats() serve.Stats {
	ledgers := [serve.NumClasses]serve.Counts{
		{Submitted: 60, Rejected: 4, Expired: 2, ExpiredDispatched: 1, Completed: 55, Failed: 2, QueueDepth: 1, QueueCap: 32,
			StageReliable: 2 * time.Second, StageQualifier: 750 * time.Millisecond, StageCNN: 3 * time.Second},
		{Submitted: 40, Rejected: 5, Expired: 2, ExpiredDispatched: 1, Completed: 36, Failed: 1, QueueDepth: 2, QueueCap: 16,
			StageCNN: 2500 * time.Millisecond},
		{Submitted: 20, Rejected: 1, Expired: 1, Completed: 9, Degraded: 4, QueueDepth: 1, QueueCap: 16,
			StageReliable: time.Second, StageQualifier: 250 * time.Millisecond, StageCNN: 1500 * time.Millisecond},
	}
	st := serve.Stats{
		Batches: 30, BatchHist: []uint64{5, 10, 10, 5}, BackendHist: serve.NewHistogram(),
		ServiceTime: 2 * time.Millisecond, BackendBusy: 45 * time.Second, Uptime: time.Hour,
	}
	sample := 1
	for i, c := range serve.Classes {
		cs := serve.ClassStats{Class: c.String(), Counts: ledgers[i]}
		cs.LatencyHist, cs.QueueHist = serve.NewHistogram(), serve.NewHistogram()
		for ; cs.LatencyHist.Count() < cs.Completed; sample++ {
			d := time.Duration(sample) * time.Millisecond
			cs.LatencyHist.Observe(d)
			cs.QueueHist.Observe(d / 4)
			st.BackendHist.Observe(d / 2)
		}
		st.Classes = append(st.Classes, cs)
	}
	return serve.Merge(st)
}

func renderStats(t *testing.T, st serve.Stats) map[string]*MetricFamily {
	t.Helper()
	var b strings.Builder
	p := NewPromWriter(&b)
	WriteServeStats(p, st)
	if err := p.Err(); err != nil {
		t.Fatalf("WriteServeStats: %v", err)
	}
	fams, err := ParsePrometheus(b.String())
	if err != nil {
		t.Fatalf("own /metrics output does not parse: %v\n%s", err, b.String())
	}
	return fams
}

// TestWriteServeStatsGolden checks the exposition end to end: every family
// present with the right TYPE, counter values matching the stats snapshot,
// and histograms internally consistent (cumulative buckets, +Inf == _count).
func TestWriteServeStatsGolden(t *testing.T) {
	st := goldenStats()
	fams := renderStats(t, st)

	wantTypes := map[string]string{
		"hybridnet_requests_submitted_total":          "counter",
		"hybridnet_requests_rejected_total":           "counter",
		"hybridnet_requests_expired_total":            "counter",
		"hybridnet_requests_expired_dispatched_total": "counter",
		"hybridnet_requests_completed_total":          "counter",
		"hybridnet_requests_failed_total":             "counter",
		"hybridnet_batches_total":                     "counter",
		"hybridnet_queue_depth":                       "gauge",
		"hybridnet_queue_capacity":                    "gauge",
		"hybridnet_service_time_seconds":              "gauge",
		"hybridnet_backend_busy_seconds_total":        "counter",
		"hybridnet_uptime_seconds":                    "gauge",
		"hybridnet_batch_size":                        "histogram",
		"hybridnet_request_latency_seconds":           "histogram",
		"hybridnet_queue_wait_seconds":                "histogram",
		"hybridnet_backend_latency_seconds":           "histogram",
		"hybridnet_stage_busy_seconds_total":          "counter",
	}
	for name, typ := range wantTypes {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s type %q, want %q", name, f.Type, typ)
		}
	}

	// aggregate returns a family's one unlabeled sample (the class-labeled
	// series are TestWriteServeStatsClassSumsToAggregate's).
	aggregate := func(name string) float64 {
		t.Helper()
		var found []float64
		for _, s := range fams[name].Samples {
			if len(s.Labels) == 0 {
				found = append(found, s.Value)
			}
		}
		if len(found) != 1 {
			t.Fatalf("family %s: want exactly one unlabeled sample, have %v", name, found)
		}
		return found[0]
	}
	if got := aggregate("hybridnet_requests_completed_total"); got != 100 {
		t.Errorf("completed_total = %v, want 100", got)
	}
	if got := aggregate("hybridnet_requests_expired_dispatched_total"); got != 2 {
		t.Errorf("expired_dispatched_total = %v, want 2", got)
	}
	if got := aggregate("hybridnet_queue_depth"); got != 4 {
		t.Errorf("queue_depth = %v, want 4", got)
	}

	// Stage counters: one series per stage label.
	stages := map[string]float64{}
	for _, s := range fams["hybridnet_stage_busy_seconds_total"].Samples {
		if s.Labels["class"] == "" {
			stages[s.Labels["stage"]] = s.Value
		}
	}
	if stages["reliable"] != 3 || stages["qualifier"] != 1 || stages["cnn"] != 7 {
		t.Errorf("stage series = %v, want reliable=3 qualifier=1 cnn=7", stages)
	}

	// Histogram internal consistency for the latency family.
	f := fams["hybridnet_request_latency_seconds"]
	var count, sum float64
	var infSeen bool
	prev := -1.0
	for _, s := range f.Samples {
		if s.Labels["class"] != "" {
			continue
		}
		switch s.Name {
		case f.Name + "_count":
			count = s.Value
		case f.Name + "_sum":
			sum = s.Value
		case f.Name + "_bucket":
			if s.Value < prev {
				t.Errorf("bucket le=%s cumulative count decreased: %v < %v",
					s.Labels["le"], s.Value, prev)
			}
			prev = s.Value
			if s.Labels["le"] == "+Inf" {
				infSeen = true
				if s.Value != 100 {
					t.Errorf("+Inf bucket = %v, want 100", s.Value)
				}
			}
		}
	}
	if !infSeen {
		t.Error("latency histogram has no +Inf bucket")
	}
	if count != 100 {
		t.Errorf("latency _count = %v, want 100", count)
	}
	// Sum of 1..100ms = 5.05s.
	if sum < 5.049 || sum > 5.051 {
		t.Errorf("latency _sum = %v, want 5.05", sum)
	}
}

// TestMetricsQuantileMatchesStats is the acceptance check: the p50/p99 a
// Prometheus scraper would compute from /metrics buckets equals the /stats
// quantile to within one bucket width (serve.Quantile clamps to the exact
// observed max; the exposition only has the bucket's upper bound).
func TestMetricsQuantileMatchesStats(t *testing.T) {
	st := goldenStats()
	fams := renderStats(t, st)
	f := fams["hybridnet_request_latency_seconds"]
	for _, p := range []float64{0.50, 0.99} {
		metricsQ, err := HistogramQuantile(f, p, map[string]string{"class": ""})
		if err != nil {
			t.Fatalf("HistogramQuantile(%v): %v", p, err)
		}
		statsQ := st.LatencyHist.Quantile(p).Seconds()
		if metricsQ < statsQ || metricsQ > statsQ*1.20 {
			t.Errorf("p%.0f: metrics %.6fs vs stats %.6fs — want within one bucket (19%%)",
				p*100, metricsQ, statsQ)
		}
	}
}

// instantBackend returns zero results immediately.
type instantBackend struct{}

func (instantBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	return make([]core.Result, len(imgs)), nil
}

// TestConcurrentObserveScrape runs live traffic through a scheduler while
// concurrently rendering /metrics from its snapshots — the data-race check
// for the observe/scrape pair (meaningful under -race).
func TestConcurrentObserveScrape(t *testing.T) {
	sched, err := serve.New(instantBackend{}, serve.Config{MaxBatch: 4, QueueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Shutdown(context.Background())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sched.Submit(context.Background(), tensor.MustNew(1, 1, 1))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		p := NewPromWriter(&b)
		WriteServeStats(p, sched.Stats())
		if err := p.Err(); err != nil {
			t.Fatalf("scrape %d: %v", i, err)
		}
		if _, err := ParsePrometheus(b.String()); err != nil {
			t.Fatalf("scrape %d does not parse: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkObservePath is the per-request observability hot path the serving
// tier adds on top of classification: mint the trace counter, record the
// trace with the flight recorder (steady state: not among the slowest).
// Gate: ~100ns/op.
func BenchmarkObservePath(b *testing.B) {
	r := NewRecorder(64)
	start := time.Now()
	// Warm the slowest set so benchmark records never take the slow path.
	for i := 0; i < 64; i++ {
		r.Record(TraceRecord{ID: "warm", Start: start, Status: 200, Total: time.Hour})
	}
	var completed atomic.Uint64
	tr := TraceRecord{ID: "bench", Start: start, Status: 200, Total: time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		completed.Add(1)
		r.Record(tr)
	}
}

// TestWriteServeStatsGoldenBytes pins the exposition byte for byte: family
// order, series order within a family, label rendering, value formatting
// and histogram bucket collapsing. Regenerate testdata/serve_stats.prom
// only for a deliberate change to the /metrics output.
func TestWriteServeStatsGoldenBytes(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	WriteServeStats(p, goldenStats())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/serve_stats.prom")
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
	}
	// Every family's series form one group under its TYPE header, as the
	// text format requires.
	family := ""
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family = strings.Fields(f)[0]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]
		switch strings.TrimPrefix(name, family) {
		case "", "_bucket", "_sum", "_count":
		default:
			t.Fatalf("%s under family %s's header: series not contiguous", name, family)
		}
	}
}
