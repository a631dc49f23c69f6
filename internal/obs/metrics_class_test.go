package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// stagedBackend answers instantly but reports a fixed stage breakdown,
// zeroing the reliable/qualifier stages for all-CNN batches like the real
// pipeline does.
type stagedBackend struct{}

func (stagedBackend) ClassifyBatch(imgs []*tensor.Tensor) ([]core.Result, error) {
	return make([]core.Result, len(imgs)), nil
}

func (b stagedBackend) ClassifyBatchPipelined(imgs []*tensor.Tensor, pipes []core.Pipeline) ([]core.Result, core.StageTimes, error) {
	res, err := b.ClassifyBatch(imgs)
	st := core.StageTimes{Reliable: 3 * time.Millisecond, Qualifier: time.Millisecond, CNN: 7 * time.Millisecond}
	full := pipes == nil // nil pipes: every rider runs the full pipeline
	for _, p := range pipes {
		if p == core.PipelineFull {
			full = true
		}
	}
	if !full {
		st.Reliable, st.Qualifier = 0, 0
	}
	return res, st, err
}

// TestWriteServeStatsClassSumsToAggregate is the observability acceptance
// gate for service classes: render a live scheduler's snapshot after a
// mixed-class churn, parse our own exposition back, and check that every
// class-labeled series sums exactly to its unlabeled aggregate — counters,
// queue gauges, histogram counts and the per-stage busy totals — and that
// the class×outcome matrix is consistent with the per-outcome counters.
func TestWriteServeStatsClassSumsToAggregate(t *testing.T) {
	s, err := serve.New(stagedBackend{}, serve.Config{MaxBatch: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	img := tensor.MustNew(1, 1, 1)
	var wg sync.WaitGroup
	counts := map[serve.Class]int{serve.ClassGuaranteed: 12, serve.ClassFast: 8, serve.ClassBudget: 5}
	for class, n := range counts {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(c serve.Class) {
				defer wg.Done()
				if _, _, err := s.SubmitTraced(context.Background(), img, c); err != nil {
					t.Errorf("submit %v: %v", c, err)
				}
			}(class)
		}
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != 25 {
		t.Fatalf("completed %d, want 25", st.Completed)
	}

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

	// split sums a family's samples matching the given name into the
	// unlabeled aggregate and the per-class total, keyed off extra label
	// requirements (for stage and histogram-suffix series).
	split := func(famName, sampleName string, extra map[string]string) (agg float64, classSum float64, classes int) {
		t.Helper()
		f := fams[famName]
		if f == nil {
			t.Fatalf("family %s missing", famName)
		}
		aggSeen := false
		for _, smp := range f.Samples {
			if smp.Name != sampleName {
				continue
			}
			match := true
			for k, v := range extra {
				if smp.Labels[k] != v {
					match = false
				}
			}
			if !match {
				continue
			}
			if cl, ok := smp.Labels["class"]; ok {
				if _, err := serve.ParseClass(cl); err != nil {
					t.Errorf("%s: unknown class label %q", sampleName, cl)
				}
				classSum += smp.Value
				classes++
			} else {
				if aggSeen {
					t.Errorf("%s: duplicate unlabeled sample", sampleName)
				}
				agg, aggSeen = smp.Value, true
			}
		}
		if !aggSeen {
			t.Fatalf("%s: no unlabeled aggregate sample", sampleName)
		}
		return agg, classSum, classes
	}

	for _, name := range []string{
		"hybridnet_requests_submitted_total",
		"hybridnet_requests_rejected_total",
		"hybridnet_requests_expired_total",
		"hybridnet_requests_expired_dispatched_total",
		"hybridnet_requests_completed_total",
		"hybridnet_requests_failed_total",
		"hybridnet_queue_depth",
		"hybridnet_queue_capacity",
	} {
		agg, sum, n := split(name, name, nil)
		if agg != sum {
			t.Errorf("%s: class sum %v != aggregate %v", name, sum, agg)
		}
		if n != serve.NumClasses {
			t.Errorf("%s: %d class samples, want %d", name, n, serve.NumClasses)
		}
	}
	if agg, _, _ := split("hybridnet_requests_submitted_total", "hybridnet_requests_submitted_total", nil); agg != 25 {
		t.Errorf("submitted aggregate %v, want 25", agg)
	}

	// Histogram counts are integers and must match exactly; the _sum
	// series goes through nanoseconds→seconds float conversion per class,
	// so allow ulp-level noise there.
	near := func(a, b float64) bool { d := a - b; return d <= 1e-9 && d >= -1e-9 }
	for _, name := range []string{"hybridnet_request_latency_seconds", "hybridnet_queue_wait_seconds"} {
		if agg, sum, n := split(name, name+"_count", nil); agg != sum || n != serve.NumClasses {
			t.Errorf("%s_count: class sum %v (over %d samples) != aggregate %v", name, sum, n, agg)
		}
		if agg, sum, n := split(name, name+"_sum", nil); !near(agg, sum) || n != serve.NumClasses {
			t.Errorf("%s_sum: class sum %v (over %d samples) != aggregate %v", name, sum, n, agg)
		}
	}

	for _, stage := range []string{"reliable", "qualifier", "cnn"} {
		agg, sum, n := split("hybridnet_stage_busy_seconds_total", "hybridnet_stage_busy_seconds_total", map[string]string{"stage": stage})
		// Durations round-trip through decimal seconds; allow one ulp of
		// formatting noise.
		if d := agg - sum; d > 1e-9 || d < -1e-9 {
			t.Errorf("stage %s: class sum %v != aggregate %v", stage, sum, agg)
		}
		if n != serve.NumClasses {
			t.Errorf("stage %s: %d class samples, want %d", stage, n, serve.NumClasses)
		}
		if stage == "cnn" && agg == 0 {
			t.Errorf("cnn stage busy is zero after 25 completions")
		}
	}

	// The class×outcome matrix exists only class-labeled; its completed
	// column must agree with the per-class completed counter series.
	matrix := fams["hybridnet_requests_total"]
	if matrix == nil {
		t.Fatal("hybridnet_requests_total matrix missing")
	}
	completedByClass := map[string]float64{}
	for _, smp := range matrix.Samples {
		if smp.Labels["class"] == "" || smp.Labels["outcome"] == "" {
			t.Errorf("matrix sample missing class/outcome labels: %+v", smp)
		}
		if smp.Labels["outcome"] == "completed" {
			completedByClass[smp.Labels["class"]] += smp.Value
		}
	}
	for class, n := range counts {
		if got := completedByClass[class.String()]; got != float64(n) {
			t.Errorf("matrix completed{class=%q} = %v, want %d", class, got, n)
		}
	}
	if f := fams["hybridnet_requests_degraded_total"]; f == nil || len(f.Samples) != serve.NumClasses {
		t.Errorf("hybridnet_requests_degraded_total: want %d class samples, have %+v", serve.NumClasses, f)
	}
}
