// Command loadgen drives a running hybridnetd (or hybridnet-router) at a
// configured request rate and reports tail latency — the measurement half
// of the serving subsystem. It is an open-loop generator: requests fire on
// a fixed schedule whether or not earlier ones have completed, so queueing
// delay shows up in the latency distribution instead of silently
// throttling the offered load.
//
//	go run ./cmd/hybridnetd -demo &
//	go run ./examples/loadgen -addr http://127.0.0.1:8080 -rps 200 -duration 10s
//
// Against the sharded plane, -router additionally pulls the router's
// /stats after the run and prints each shard's served count and latency
// tail next to the serve.Merge aggregate, so per-shard imbalance (and the
// cost of a mid-run failover) is visible instead of averaged away:
//
//	go run ./cmd/hybridnet-router -shards 2 -worker-bin ./hybridnetd &
//	go run ./examples/loadgen -addr http://127.0.0.1:8090 -router -rps 200
//
// Rejections (HTTP 503, the daemon's admission control) are counted
// separately from successes: under overload the right outcome is a fast
// 503, not an ever-growing queue.
//
// -class-mix drives a mixed service-class workload (the fractions need not
// sum to 1; they are normalised) and reports client-side p50/p99 per class
// plus how many responses came back degraded:
//
//	go run ./examples/loadgen -addr http://127.0.0.1:8090 -rps 400 \
//	    -class-mix 'guaranteed=0.2,fast=0.5,budget=0.3'
//
// -scenario replays a fleet-simulator arrival schedule (a builtin name
// from internal/sim, or a scenario JSON file) against the real fleet: the
// same seeded Poisson arrival process the simulator ran, including phase
// changes like the overload-burst spike, so simulated and measured tails
// line up arrival-for-arrival. It overrides -rps and -duration:
//
//	go run ./examples/loadgen -addr http://127.0.0.1:8090 -router -scenario overload-burst
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sim"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "hybridnetd or hybridnet-router base URL")
	rps := flag.Float64("rps", 100, "offered request rate per second")
	duration := flag.Duration("duration", 5*time.Second, "how long to drive load")
	sign := flag.String("sign", "stop", "sign class to request")
	concurrency := flag.Int("concurrency", 256, "max in-flight requests before shedding")
	timeout := flag.Duration("timeout", 10*time.Second, "client request timeout")
	router := flag.Bool("router", false, "target is hybridnet-router: report per-shard vs aggregate stats after the run")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests to trace: parse X-Hybridnet-Spans and report the server-side per-stage breakdown (0 = off)")
	classMix := flag.String("class-mix", "", "per-class traffic fractions, e.g. guaranteed=0.2,fast=0.5,budget=0.3 (empty = no class header, the server default applies); enables per-class latency reporting")
	scenario := flag.String("scenario", "", "replay a fleet-simulator arrival schedule (builtin name or scenario JSON file) instead of -rps/-duration")
	flag.Parse()
	var sc *sim.Scenario
	if *scenario != "" {
		loaded, err := sim.Builtin(*scenario)
		if err != nil {
			// Not a builtin: treat it as a scenario file.
			loaded, err = sim.LoadScenario(*scenario)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				os.Exit(1)
			}
		}
		sc = &loaded
	}
	if err := run(*addr, *rps, *duration, *sign, *concurrency, *timeout, *router, *traceSample, *classMix, sc); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// classPicker deterministically assigns a service class per request from the
// -class-mix fractions. nil means the flag is off: no header is sent and
// the server-side default class applies.
type classPicker struct {
	cum [serve.NumClasses]float64 // cumulative fractions, cum[last] == total
	rng *rand.Rand
}

func newClassPicker(spec string) (*classPicker, error) {
	if spec == "" {
		return nil, nil
	}
	mix, err := serve.ParseClassFloats(spec)
	if err != nil {
		return nil, err
	}
	p := &classPicker{rng: rand.New(rand.NewSource(1))}
	total := 0.0
	for i, f := range mix {
		if f < 0 {
			return nil, fmt.Errorf("-class-mix: negative fraction for %v", serve.Class(i))
		}
		total += f
		p.cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("-class-mix: fractions sum to zero")
	}
	return p, nil
}

// pick is called from the single scheduling goroutine only.
func (p *classPicker) pick() serve.Class {
	r := p.rng.Float64() * p.cum[serve.NumClasses-1]
	for i, c := range p.cum {
		if r < c {
			return serve.Class(i)
		}
	}
	return serve.Class(serve.NumClasses - 1)
}

// tally accumulates client-side observations. Latencies go straight into a
// serve.Histogram — the same mergeable log-bucketed structure the servers
// report — so the client-side quantiles are directly comparable to the
// /stats ones (both exact-to-bucket) and the memory cost is flat no matter
// how long the run is. Sampled traces land their per-stage spans in stages,
// one histogram per span name (router spans under a "router/" prefix).
type tally struct {
	mu        sync.Mutex
	latencies *serve.Histogram
	status    map[int]int
	errors    int
	shed      int
	stages    map[string]*serve.Histogram
	traced    int

	// Per-class views, populated only when -class-mix is set: latency
	// histogram and status counts per requested class, plus how many
	// responses came back with "degraded":true (budget requests the server
	// re-admitted into the fast pipeline instead of shedding).
	byClass  bool
	classLat [serve.NumClasses]*serve.Histogram
	classSt  [serve.NumClasses]map[int]int
	degraded [serve.NumClasses]int
}

// observeSpans folds one traced response's span headers into the per-stage
// histograms. Caller holds t.mu.
func (t *tally) observeSpans(hdr http.Header) {
	worker, err := obs.ParseSpans(hdr.Get(obs.SpansHeader))
	if err != nil {
		return
	}
	routerSpans, err := obs.ParseSpans(hdr.Get(obs.RouterSpansHeader))
	if err != nil {
		return
	}
	if len(worker) == 0 && len(routerSpans) == 0 {
		return
	}
	t.traced++
	observe := func(prefix string, spans []obs.Span) {
		for _, s := range spans {
			h := t.stages[prefix+s.Name]
			if h == nil {
				h = serve.NewHistogram()
				t.stages[prefix+s.Name] = h
			}
			h.Observe(s.Dur)
		}
	}
	observe("", worker)
	observe("router/", routerSpans)
}

func run(addr string, rps float64, duration time.Duration, sign string, concurrency int, timeout time.Duration, router bool, traceSample float64, classMix string, sc *sim.Scenario) error {
	if sc == nil && rps <= 0 {
		return fmt.Errorf("rps must be > 0")
	}
	if sc != nil {
		// The scenario scripts the schedule; -rps/-duration don't apply.
		duration = sc.Duration
	}
	picker, err := newClassPicker(classMix)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: timeout}
	// Fail fast if the daemon is not there at all.
	resp, err := client.Get(addr + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon not reachable: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	t := &tally{latencies: serve.NewHistogram(), status: map[int]int{},
		stages: map[string]*serve.Histogram{}}
	if picker != nil {
		t.byClass = true
		for i := range t.classLat {
			t.classLat[i] = serve.NewHistogram()
			t.classSt[i] = map[int]int{}
		}
	}
	sampleEvery := 0
	if traceSample > 0 {
		if traceSample > 1 {
			traceSample = 1
		}
		sampleEvery = int(1 / traceSample)
	}
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	seq := 0
	// fire launches one request (or sheds it at the concurrency cap); it is
	// called from the single scheduling goroutine, on whichever schedule —
	// the fixed -rps ticker or the replayed scenario offsets — is driving.
	fire := func() {
		seq++
		select {
		case sem <- struct{}{}:
		default:
			// Open loop: past the concurrency cap we shed instead of
			// blocking the schedule.
			t.mu.Lock()
			t.shed++
			t.mu.Unlock()
			return
		}
		class := serve.ClassGuaranteed
		if picker != nil {
			// Picked on the scheduling goroutine: the picker's rng is not
			// concurrency-safe, and a deterministic seed keeps the mix
			// reproducible run to run.
			class = picker.pick()
		}
		wg.Add(1)
		go func(seq int, class serve.Class) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			body, err := json.Marshal(api.ClassifyRequest{Sign: sign, Seed: int64(seq)})
			var req *http.Request
			if err == nil {
				req, err = http.NewRequest(http.MethodPost, addr+"/classify", bytes.NewReader(body))
			}
			if err != nil {
				t.mu.Lock()
				t.errors++
				t.mu.Unlock()
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if picker != nil {
				req.Header.Set(obs.ClassHeader, class.String())
			}
			resp, err := client.Do(req)
			if err != nil {
				t.mu.Lock()
				t.errors++
				t.mu.Unlock()
				return
			}
			// Read outside the lock: body reads must not serialize the
			// open-loop completions the tool is measuring. The body is only
			// decoded (for the degraded flag) when classes are in play; an
			// undecodable 200 counts as not degraded, like any other reply.
			var answer api.ClassifyResponse
			if t.byClass && resp.StatusCode == http.StatusOK {
				_ = json.NewDecoder(resp.Body).Decode(&answer)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat := time.Since(start)
			t.mu.Lock()
			t.status[resp.StatusCode]++
			if t.byClass {
				t.classSt[class][resp.StatusCode]++
				if answer.Degraded {
					t.degraded[class]++
				}
			}
			if resp.StatusCode == http.StatusOK {
				t.latencies.Observe(lat)
				if t.byClass {
					t.classLat[class].Observe(lat)
				}
				if sampleEvery > 0 && seq%sampleEvery == 0 {
					t.observeSpans(resp.Header)
				}
			}
			t.mu.Unlock()
		}(seq, class)
	}

	if sc != nil {
		// Replay the simulator's arrival process in real time: sleep to
		// each precomputed offset, then fire. Offsets are absolute from the
		// run start so schedule drift does not accumulate.
		start := time.Now()
		for _, off := range sc.ArrivalOffsets() {
			if d := time.Until(start.Add(off)); d > 0 {
				time.Sleep(d)
			}
			fire()
		}
	} else {
		interval := time.Duration(float64(time.Second) / rps)
		deadline := time.Now().Add(duration)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for now := time.Now(); now.Before(deadline); now = <-ticker.C {
			fire()
		}
	}
	wg.Wait()

	t.mu.Lock()
	defer t.mu.Unlock()
	sent := seq - t.shed
	if sc != nil {
		fmt.Printf("scenario %s: offered %d requests over %v; sent %d (%.1f rps mean)\n",
			sc.Name, seq, duration, sent, float64(sent)/duration.Seconds())
	} else {
		fmt.Printf("offered %d requests over %v (target %.0f rps); sent %d (%.1f rps)\n",
			seq, duration, rps, sent, float64(sent)/duration.Seconds())
	}
	for code, n := range t.status {
		fmt.Printf("  HTTP %d: %d\n", code, n)
	}
	if t.errors > 0 {
		fmt.Printf("  transport errors: %d\n", t.errors)
	}
	if t.shed > 0 {
		fmt.Printf("  shed at client (concurrency %d): %d\n", concurrency, t.shed)
	}
	n := t.latencies.Count()
	if n == 0 {
		return fmt.Errorf("no successful requests")
	}
	q := t.latencies.Quantile
	fmt.Printf("latency (n=%d, bucketed): p50 %v  p90 %v  p99 %v  max %v\n",
		n, q(0.50).Round(time.Microsecond), q(0.90).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), t.latencies.Max().Round(time.Microsecond))
	fmt.Printf("success throughput: %.1f rps\n", float64(n)/duration.Seconds())
	if t.byClass {
		fmt.Println("per-class (client view):")
		for _, c := range serve.Classes {
			h := t.classLat[c]
			ok := t.classSt[c][http.StatusOK]
			shed503 := t.classSt[c][http.StatusServiceUnavailable]
			sentC := 0
			for _, n := range t.classSt[c] {
				sentC += n
			}
			if sentC == 0 {
				continue
			}
			line := fmt.Sprintf("  %-10s sent %-6d 200s %-6d 503s %-5d", c, sentC, ok, shed503)
			if h.Count() > 0 {
				line += fmt.Sprintf("  p50 %v  p99 %v  max %v",
					h.Quantile(0.50).Round(time.Microsecond),
					h.Quantile(0.99).Round(time.Microsecond),
					h.Max().Round(time.Microsecond))
			}
			if t.degraded[c] > 0 {
				line += fmt.Sprintf("  degraded %d", t.degraded[c])
			}
			fmt.Println(line)
		}
	}
	if t.traced > 0 {
		// The server-side view of where sampled requests spent their time:
		// top-level stages tile the wall clock; dotted sub-spans (backend.cnn)
		// and router/ attempts are drill-down detail.
		fmt.Printf("server-side stage breakdown (%d traced):\n", t.traced)
		names := make([]string, 0, len(t.stages))
		for name := range t.stages {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := t.stages[name]
			fmt.Printf("  %-20s p50 %v  p99 %v  max %v\n", name,
				h.Quantile(0.50).Round(time.Microsecond),
				h.Quantile(0.99).Round(time.Microsecond),
				h.Max().Round(time.Microsecond))
		}
	}
	if router {
		return reportShards(client, addr)
	}
	return nil
}

// reportShards prints the router's view of the run: each shard's served
// volume and latency tail beside the merged aggregate, so imbalance and
// failover cost are visible per replica.
func reportShards(client *http.Client, addr string) error {
	resp, err := client.Get(addr + "/stats")
	if err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	defer resp.Body.Close()
	var rep shard.StatsReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("decode router stats: %w", err)
	}
	if len(rep.Shards) == 0 {
		// A plain hybridnetd's serve.Stats decodes into StatsReport without
		// error (unknown fields are ignored), so detect the mismatch
		// structurally: a real router always lists its shards.
		return fmt.Errorf("%s/stats has no shard list — is -addr really a hybridnet-router?", addr)
	}
	fmt.Printf("router: %d proxied, %d failovers, %d errors\n", rep.Proxied, rep.Failovers, rep.Errors)
	for _, s := range rep.Shards {
		state := "healthy"
		switch {
		case s.PermanentlyDown:
			state = "DOWN"
		case !s.Healthy:
			state = "BROKEN"
		}
		if s.Restarts > 0 {
			state = fmt.Sprintf("%s (respawned %d×)", state, s.Restarts)
		}
		if s.Stats == nil {
			fmt.Printf("  shard %d %-22s %s  stats unavailable: %s\n", s.ID, s.URL, state, s.Error)
			continue
		}
		fmt.Printf("  shard %d %-22s %s  w=%.1f svc=%v  completed %d (mean batch %.2f)  p50 %v  p99 %v  max %v\n",
			s.ID, s.URL, state, s.Weight, s.ServiceTime.Round(time.Microsecond),
			s.Stats.Completed, s.Stats.MeanBatch,
			s.Stats.LatencyP50.Round(time.Microsecond), s.Stats.LatencyP99.Round(time.Microsecond),
			s.Stats.LatencyMax.Round(time.Microsecond))
	}
	agg := rep.Aggregate
	fmt.Printf("  aggregate (%d shards)  completed %d (mean batch %.2f)  p50 %v  p99 %v  max %v\n",
		agg.Shards, agg.Completed, agg.MeanBatch,
		agg.LatencyP50.Round(time.Microsecond), agg.LatencyP99.Round(time.Microsecond),
		agg.LatencyMax.Round(time.Microsecond))
	return nil
}
