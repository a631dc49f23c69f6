// Package shard is the multi-process serving plane: a Router spreads
// POST /classify traffic across N hybridnetd worker shards, each running
// its own model replica and serve.Scheduler, behind the same HTTP API a
// single daemon exposes.
//
// # Placement
//
// Placement is power-of-two-choices, the router's one policy and one rule:
// two distinct routable shards are sampled and the one with the lower score
// wins. A shard's load is what the router has in flight to it plus the
// queue depth it last reported on /healthz for the request's class
// (below). The score is (load+1) times the rolling per-image service time
// each worker exports when both sampled shards report one, and load+1
// otherwise, so on heterogeneous hardware the router equalises expected
// completion time rather than raw queue depth. The probed service time is
// the only capacity signal. Equal scores fall back to the round-robin
// cursor.
//
// Placement is service-class aware: workers report per-class queue depths
// on /healthz and a request's load signal counts only the backlog its
// class actually waits behind (same-or-higher priority), so guaranteed
// traffic routes around budget pile-ups. The class arrives on the
// X-Hybridnet-Class header (absent = Config.DefaultClass) and is forwarded
// to the worker in canonical form.
//
// # Failure handling
//
// Every shard is health-checked on an interval; a shard that fails
// BreakerThreshold consecutive probes or proxied requests is circuit-broken
// — taken out of placement — and re-admitted as soon as a probe succeeds
// again. A request that hits a dead or overloaded shard (connection error
// or 503) fails over to one other shard before the error reaches the
// client, so losing one worker of N is invisible to clients. Budget-class
// requests are the exception: they never fail over — the worker already
// degrades them instead of shedding, so a budget 503 means fleet-wide
// saturation and the retry capacity is reserved for guaranteed and fast.
//
// Spawned workers are additionally supervised: when one exits, the router
// respawns it with exponential backoff (RestartBackoff, doubling, capped at
// RestartBackoffMax), re-learns its kernel-assigned port from the stdout
// report, and lets the next successful health probe re-admit it through the
// breaker. RestartMax consecutive failed or short-lived restarts mark the
// shard permanently down: it leaves placement for good but stays in /stats
// so dashboards see fleet size. Attached (remote) workers have no process
// to watch: the breaker alone takes them out of placement and lets them back.
//
// # Stats
//
// GET /stats serves the fleet view: every shard's serve.Stats merged with
// serve.Merge plus per-shard detail. Class ledgers merge by class name and
// the fleet aggregate is their sum, so fleet latency quantiles come from
// summed log-bucketed histograms — exact-to-bucket. Shards that report
// nothing merge as zero-valued stats, so the aggregate's shard count is
// the fleet size.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config parameterises a Router.
type Config struct {
	// HealthInterval is the /healthz probe period. Default 250ms.
	HealthInterval time.Duration
	// BreakerThreshold is the number of consecutive failures (probes or
	// proxied requests) that opens a shard's circuit breaker. Default 3.
	BreakerThreshold int
	// RequestTimeout bounds one proxied request (per attempt). Default 30s —
	// comfortably above a worker's own per-request deadline, so the worker's
	// 504 wins over the router's.
	RequestTimeout time.Duration
	// RestartMax bounds consecutive restart attempts for a spawned worker
	// before its shard is marked permanently down. A run longer than
	// 10×RestartBackoff resets the budget. 0 selects the default (5);
	// negative disables respawn entirely, so "mark down on first death" is
	// not expressible — use RestartMax: 1 for the closest behaviour.
	RestartMax int
	// RestartBackoff is the delay before the first respawn attempt; it
	// doubles per consecutive attempt up to RestartBackoffMax.
	// Default 250ms.
	RestartBackoff time.Duration
	// RestartBackoffMax caps the exponential respawn backoff. Default 5s.
	RestartBackoffMax time.Duration
	// Log is the router's one logger: router events (breaker transitions,
	// worker exits, respawns) as info events and one outcome line per
	// proxied request carrying the trace ID. Nil is silent.
	Log *slog.Logger
	// TraceDepth is the flight recorder's K (slowest + most recent traces
	// kept for GET /debug/requests). 0 selects obs.DefaultRecorderDepth.
	TraceDepth int
	// TraceSample promotes a deterministic fraction of per-request outcome
	// lines to info level with their full router span breakdown (0 = none,
	// 1 = all). Error outcomes are logged regardless.
	TraceSample float64
	// DefaultClass is the service class assumed for requests that arrive
	// without an X-Hybridnet-Class header. The zero value is
	// serve.ClassGuaranteed, matching the pre-class behaviour. The router
	// always forwards the canonical class name to the worker, so the fleet
	// default is decided once at the edge.
	DefaultClass serve.Class
}

// maxWorkerReply caps how much of a worker's /classify reply the router
// buffers. A real reply is ~300 bytes; anything past the cap is a broken or
// hostile worker and is handled as a transport failure, not forwarded.
const maxWorkerReply = 1 << 20

func (c Config) withDefaults() Config {
	if c.HealthInterval == 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RestartMax == 0 {
		c.RestartMax = 5
	}
	if c.RestartBackoff == 0 {
		c.RestartBackoff = 250 * time.Millisecond
	}
	if c.RestartBackoffMax == 0 {
		c.RestartBackoffMax = 5 * time.Second
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// shardState is one worker replica as the router sees it.
type shardState struct {
	id int

	inflight atomic.Int64  // router-side requests currently proxied to this shard
	depth    atomic.Int64  // queue depth last reported by /healthz
	service  atomic.Int64  // per-image service time (ns) last reported by /healthz
	restarts atomic.Uint64 // successful supervisor respawns

	// classDepth is the per-class queue depth the shard last reported on
	// /healthz (indexed by serve.Class).
	classDepth [serve.NumClasses]atomic.Int64

	mu          sync.Mutex
	url         string      // base URL, no trailing slash; rewritten on respawn
	proc        *workerProc // non-nil only for spawned workers; rewritten on respawn
	open        bool        // circuit open: excluded from placement
	down        bool        // permanently down: restart budget exhausted
	consecFails int
	opens       uint64 // breaker open transitions
	closes      uint64 // breaker close (re-admission) transitions
}

// classLoad is the placement signal for a request of class c: router
// inflight plus the backlog the shard will dispatch at the same or higher
// priority than c. A guaranteed request only competes with the guaranteed
// queue; a budget request waits behind everything, so its effective depth
// is the whole backlog.
func (s *shardState) classLoad(c serve.Class) int64 {
	d := s.inflight.Load()
	for i := serve.ClassGuaranteed; i <= c && i.Valid(); i++ {
		d += s.classDepth[i].Load()
	}
	return d
}

func (s *shardState) base() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.url
}

func (s *shardState) currentProc() *workerProc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proc
}

// adopt installs a freshly respawned worker process and its new base URL,
// and clears the probe-reported load signals the dead process left; the next
// probe of the new process repopulates them. Breaker state is left alone:
// the next successful health probe re-admits the shard, so traffic only
// returns once the new process answers.
func (s *shardState) adopt(p *workerProc, url string) {
	s.mu.Lock()
	s.proc = p
	s.url = url
	s.mu.Unlock()
	s.depth.Store(0)
	s.service.Store(0)
	for i := range s.classDepth {
		s.classDepth[i].Store(0)
	}
}

func (s *shardState) isDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

func (s *shardState) markDown() {
	s.mu.Lock()
	s.down = true
	s.mu.Unlock()
}

// healthy is the /healthz and /stats notion of routable: breaker closed and
// not permanently down.
func (s *shardState) healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.open && !s.down
}

// recordFailure counts one probe/request failure toward the breaker and
// reports whether this failure opened it.
func (s *shardState) recordFailure(threshold int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails++
	if !s.open && s.consecFails >= threshold {
		s.open = true
		s.opens++
		return true
	}
	return false
}

// recordSuccess resets the failure streak and reports whether it re-admitted
// a circuit-broken shard.
func (s *shardState) recordSuccess() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consecFails = 0
	if s.open {
		s.open = false
		s.closes++
		return true
	}
	return false
}

func (s *shardState) breakerCounts() (opens, closes uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opens, s.closes
}

// Router load-balances the hybridnetd HTTP API across worker shards.
// Build with New (attach to running workers) or Spawn (supervise worker
// processes), mount Mux on an http.Server, stop with Shutdown.
type Router struct {
	cfg    Config
	client *http.Client
	shards []*shardState

	// bin/binArgs reproduce a spawned worker; set only by Spawn, read only
	// by the supervisor goroutines.
	bin     string
	binArgs []string
	superWG sync.WaitGroup

	placer *placer

	proxied   atomic.Uint64 // client requests proxied (any outcome)
	failovers atomic.Uint64 // requests saved by the second attempt
	errored   atomic.Uint64 // requests that surfaced a transport error

	trace *obs.TraceSink // router-side flight recorder + per-request outcome lines

	stopOnce sync.Once
	stop     chan struct{} // closes to stop the health loop and supervisors
	probed   chan struct{} // closed after the first full probe round
	done     chan struct{} // health loop exited
}

// New attaches a Router to already-running workers at the given base URLs
// (e.g. "http://127.0.0.1:8081"). A scheme-less URL gets "http://".
func New(urls []string, cfg Config) (*Router, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one worker URL")
	}
	shards := make([]*shardState, len(urls))
	for i, u := range urls {
		nu, err := normalizeURL(u)
		if err != nil {
			return nil, fmt.Errorf("shard: worker %d: %w", i, err)
		}
		shards[i] = &shardState{id: i, url: nu}
	}
	return newRouter(shards, cfg), nil
}

func newRouter(shards []*shardState, cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.RequestTimeout},
		shards: shards,
		placer: newPlacer(1),
		trace:  obs.NewTraceSink(cfg.Log, "proxy", cfg.TraceDepth, cfg.TraceSample),
		stop:   make(chan struct{}),
		probed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.healthLoop()
	return r
}

func normalizeURL(u string) (string, error) {
	u = strings.TrimRight(strings.TrimSpace(u), "/")
	if u == "" {
		return "", fmt.Errorf("empty URL")
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	parsed, err := url.Parse(u)
	if err != nil {
		return "", err
	}
	if parsed.Host == "" {
		return "", fmt.Errorf("URL %q has no host", u)
	}
	return u, nil
}

// Shards returns the number of worker shards (healthy or not).
func (r *Router) Shards() int { return len(r.shards) }

// WaitReady blocks until the first full health-probe round has completed
// (whatever its outcomes — an unreachable fleet still "readies" so the
// caller can start serving 502s rather than hang), or until ctx expires.
// After it returns, placement decisions rest on probed load data rather
// than zero-value guesses. Useful right after Spawn.
func (r *Router) WaitReady(ctx context.Context) error {
	select {
	case <-r.probed:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("shard: waiting for first probe round: %w", ctx.Err())
	}
}

// candidate snapshots one shard's placement signals for a request of class
// c. The load term is the class-effective backlog (same-or-higher-priority
// queue depth), so a shard drowning in budget work still looks cheap to a
// guaranteed request.
func (s *shardState) candidate(c serve.Class) candidate {
	return candidate{load: s.classLoad(c), service: s.service.Load()}
}

// pick chooses a target shard for a request of class c, excluding `not`
// (the shard a failed first attempt used). The routable set goes to the
// placer. With every breaker open the router still picks among
// non-permanently-down shards (whatever the placer makes of what is
// left): a guess at a possibly-recovered shard beats a guaranteed error.
// Returns nil only when every shard is permanently down.
func (r *Router) pick(not *shardState, c serve.Class) *shardState {
	routable := make([]*shardState, 0, len(r.shards))
	for _, s := range r.shards {
		if s != not && s.healthy() {
			routable = append(routable, s)
		}
	}
	if len(routable) == 0 {
		for _, s := range r.shards {
			if s != not && !s.isDown() {
				routable = append(routable, s)
			}
		}
	}
	switch len(routable) {
	case 0:
		// Sole remaining option is `not`: retrying it beats a guaranteed
		// error, unless it is permanently down.
		if not != nil && !not.isDown() {
			return not
		}
		return nil
	case 1:
		return routable[0]
	}
	cands := make([]candidate, len(routable))
	for i, s := range routable {
		cands[i] = s.candidate(c)
	}
	return routable[r.placer.pick(cands)]
}

// Mux returns the router's HTTP API: the same endpoints a single hybridnetd
// exposes, served by the fleet (metrics and flight-recorder dumps are the
// fleet-wide merge of every shard's view plus the router's own).
func (r *Router) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/classify", r.handleClassify)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/stats", r.handleStats)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/debug/requests", r.handleDebugRequests)
	return mux
}

// handleClassify proxies one classification to a picked shard, failing over
// to one other shard on a connection error or 503 before surfacing anything
// to the client. The worker's response is buffered before a byte reaches
// the client, so a mid-response worker death is retryable too.
//
// The request's trace ID (propagated from the client or minted here at the
// fleet edge) rides the X-Hybridnet-Trace header to the worker and back; the
// router's own spans (body read, per-shard attempts) go out in
// X-Hybridnet-Router-Spans so they never collide with the worker's
// breakdown.
func (r *Router) handleClassify(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		api.WriteJSON(w, http.StatusMethodNotAllowed, api.ErrorResponse{Error: "POST only"})
		return
	}
	start := time.Now()
	trace, class, err := obs.ResolveRequest(w, req, r.cfg.DefaultClass)
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
		return
	}
	finish := func(status int, shard int, spans []obs.Span, errMsg string) {
		rec := obs.TraceRecord{
			ID: trace, Start: start, Status: status, Total: time.Since(start), Spans: spans,
			Attrs: map[string]string{"class": class.String()},
		}
		var kvs []any
		if shard >= 0 {
			rec.Attrs["shard"] = strconv.Itoa(shard)
			kvs = []any{"shard", shard}
		}
		w.Header().Set(obs.RouterSpansHeader, obs.FormatSpans(spans))
		r.trace.Finish(rec, errMsg, kvs...)
	}
	// fail answers with the router's own error body instead of a worker's.
	fail := func(status int, shard int, spans []obs.Span, logMsg, clientMsg string) {
		finish(status, shard, spans, logMsg)
		api.WriteJSON(w, status, api.ErrorResponse{Error: clientMsg})
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 16<<20))
	if err != nil {
		api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: fmt.Sprintf("read body: %v", err)})
		return
	}
	spans := []obs.Span{{Name: "read", Dur: time.Since(start)}}
	r.proxied.Add(1)
	first := r.pick(nil, class)
	if first == nil {
		r.errored.Add(1)
		fail(http.StatusBadGateway, -1, spans, "no shards available",
			"no shards available: every worker is permanently down")
		return
	}
	attemptStart := time.Now()
	status, hdr, respBody, err := r.forward(req.Context(), first, trace, class, body)
	spans = append(spans, obs.Span{Name: "attempt0", Dur: time.Since(attemptStart)})
	if err == nil && status != http.StatusServiceUnavailable {
		finish(status, first.id, spans, "")
		copyResponse(w, status, hdr, respBody)
		return
	}
	// First attempt lost to a dead or shedding shard: one failover — unless
	// the client itself aborted (nobody is waiting for the retry) or the
	// request is budget class. Budget already has a degradation path on the
	// worker, and a 503 from it means even the fast queue is full; burning a
	// second attempt's capacity on the cheapest tier would steal it from the
	// classes that pay for retries.
	if req.Context().Err() == nil && class != serve.ClassBudget {
		if second := r.pick(first, class); second != nil && second != first {
			attemptStart = time.Now()
			s2, h2, b2, err2 := r.forward(req.Context(), second, trace, class, body)
			spans = append(spans, obs.Span{Name: "attempt1", Dur: time.Since(attemptStart)})
			if err2 == nil {
				if s2 < 500 {
					// Only a served response counts as "saved by failover";
					// a second 503 under fleet-wide shedding does not.
					r.failovers.Add(1)
				}
				finish(s2, second.id, spans, "")
				copyResponse(w, s2, h2, b2)
				return
			}
		}
	}
	if err != nil {
		if req.Context().Err() != nil {
			// The client aborted; nobody reads this response and the shard
			// did not fail. Keep client churn out of the error stats.
			fail(api.StatusClientClosedRequest, first.id, spans, "client closed request", "client closed request")
			return
		}
		r.errored.Add(1)
		fail(http.StatusBadGateway, first.id, spans, err.Error(),
			fmt.Sprintf("shard %d unreachable: %v", first.id, err))
		return
	}
	finish(status, first.id, spans, "")
	copyResponse(w, status, hdr, respBody) // surface the original 503
}

// forward issues one attempt against one shard and does the breaker
// bookkeeping: transport errors — a reply longer than maxWorkerReply among
// them — count toward opening, any other response counts as shard
// liveness. A 503 is a live shard shedding load — failover-worthy but not
// breaker-worthy. An abort caused by the client (parent context done) is
// no evidence against the shard, so it never touches the breaker:
// otherwise a few impatient clients could circuit-break a healthy fleet.
func (r *Router) forward(parent context.Context, s *shardState, trace string, class serve.Class, body []byte) (int, http.Header, []byte, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	ctx, cancel := context.WithTimeout(parent, r.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base()+"/classify", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, trace)
	// Always the canonical name, so the worker's -default-class never
	// second-guesses the router's: the class decision is made once, at the
	// fleet edge.
	req.Header.Set(obs.ClassHeader, class.String())
	resp, err := r.client.Do(req)
	var respBody []byte
	if err == nil {
		defer resp.Body.Close()
		respBody, err = io.ReadAll(io.LimitReader(resp.Body, maxWorkerReply+1))
		if err == nil && len(respBody) > maxWorkerReply {
			err = fmt.Errorf("reply exceeds %d bytes", maxWorkerReply)
		}
	}
	if err != nil {
		if parent.Err() == nil {
			r.noteFailure(s, err)
		}
		return 0, nil, nil, err
	}
	r.noteSuccess(s, "request")
	return resp.StatusCode, resp.Header, respBody, nil
}

// noteFailure counts one probe or request failure against the shard's
// breaker and logs the transition if it opened; noteSuccess is its inverse.
func (r *Router) noteFailure(s *shardState, err error) {
	if s.recordFailure(r.cfg.BreakerThreshold) {
		r.cfg.Log.Info("circuit open", "shard", s.id, "url", s.base(), "err", err)
	}
}

func (r *Router) noteSuccess(s *shardState, what string) {
	if s.recordSuccess() {
		r.cfg.Log.Info("circuit closed", "shard", s.id, "url", s.base(), "after", what)
	}
}

// getJSON fetches one of a shard's GET endpoints into v, within timeout.
func (r *Router) getJSON(ctx context.Context, timeout time.Duration, s *shardState, path string, v any) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base()+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s status %d", path, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(v)
	io.Copy(io.Discard, resp.Body) // read to EOF so the connection is reused
	return err
}

func copyResponse(w http.ResponseWriter, status int, hdr http.Header, body []byte) {
	// SpansHeader carries the winning worker's stage breakdown through to
	// the client; the trace header is already set at the router edge (same
	// ID the worker echoed back).
	for _, k := range []string{"Content-Type", "Retry-After", obs.SpansHeader} {
		if v := hdr.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(status)
	w.Write(body)
}

// healthLoop probes every shard's /healthz each interval (in parallel, so a
// hung shard cannot delay the others), updating the load signal and the
// breaker: probe failures open it, one probe success re-admits the shard.
// Permanently-down shards are skipped — there is nothing left to probe.
func (r *Router) healthLoop() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	first := true
	for {
		var wg sync.WaitGroup
		for _, s := range r.shards {
			if s.isDown() {
				continue
			}
			wg.Add(1)
			go func(s *shardState) {
				defer wg.Done()
				r.probe(s)
			}(s)
		}
		wg.Wait()
		if first {
			first = false
			close(r.probed)
		}
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
	}
}

func (r *Router) probe(s *shardState) {
	timeout := r.cfg.HealthInterval
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var health api.Health
	err := r.getJSON(context.Background(), timeout, s, "/healthz", &health)
	if err == nil {
		s.depth.Store(health.QueueDepth)
		if health.ServiceNS > 0 {
			s.service.Store(health.ServiceNS)
		}
		for _, c := range serve.Classes {
			s.classDepth[c].Store(health.ClassQueueDepths[c.String()])
		}
		r.noteSuccess(s, "probe")
		return
	}
	r.noteFailure(s, err)
}

// ShardStatus is one shard's entry in the /stats report.
type ShardStatus struct {
	ID      int    `json:"id"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"` // breaker closed and not permanently down
	// ServiceTime is the per-image service time the shard last reported,
	// the placement's capacity signal.
	ServiceTime time.Duration `json:"service_ns"`
	Inflight    int64         `json:"inflight"`
	QueueDepth  int64         `json:"queue_depth"` // last /healthz report
	// ClassQueueDepths is the per-class queue-depth split the shard last
	// reported on /healthz, keyed by class wire name: the placement signal.
	ClassQueueDepths map[string]int64 `json:"class_queue_depths"`
	BreakerOpens     uint64           `json:"breaker_opens"`
	BreakerCloses    uint64           `json:"breaker_closes"`
	// Restarts counts supervisor respawns of this shard's worker process.
	Restarts uint64 `json:"restarts"`
	// PermanentlyDown marks a spawned shard whose restart budget is
	// exhausted: it no longer receives traffic or probes.
	PermanentlyDown bool         `json:"permanently_down,omitempty"`
	Stats           *serve.Stats `json:"stats,omitempty"`
	Error           string       `json:"error,omitempty"` // why Stats is missing
}

// StatsReport is the router's GET /stats body: the serve.Merge aggregate of
// every shard plus per-shard detail and router-level counters. Shards that
// report no stats (dead, unreachable) merge as zero-valued stats, so
// Aggregate.Shards is the fleet size.
type StatsReport struct {
	Aggregate serve.Stats   `json:"aggregate"`
	Shards    []ShardStatus `json:"shards"`
	Proxied   uint64        `json:"proxied"`
	Failovers uint64        `json:"failovers"`
	Errors    uint64        `json:"errors"`

	// Fleet-level health and reliability counters, summed from the
	// per-shard detail so dashboards (and the Prometheus view) never have
	// to re-derive them: breaker churn, supervisor respawns, and how much
	// of the fleet is currently routable.
	HealthyShards   int    `json:"healthy_shards"`
	PermanentlyDown int    `json:"permanently_down"`
	Restarts        uint64 `json:"restarts"`
	BreakerOpens    uint64 `json:"breaker_opens"`
	BreakerCloses   uint64 `json:"breaker_closes"`
}

// Report fetches every shard's /stats (in parallel) and merges them.
func (r *Router) Report(ctx context.Context) StatsReport {
	statuses := make([]ShardStatus, len(r.shards))
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			st := ShardStatus{
				ID: s.id, URL: s.base(), Healthy: s.healthy(),
				ServiceTime: time.Duration(s.service.Load()),
				Inflight:    s.inflight.Load(), QueueDepth: s.depth.Load(),
				Restarts:         s.restarts.Load(),
				PermanentlyDown:  s.isDown(),
				ClassQueueDepths: make(map[string]int64, serve.NumClasses),
			}
			for _, c := range serve.Classes {
				st.ClassQueueDepths[c.String()] = s.classDepth[c].Load()
			}
			st.BreakerOpens, st.BreakerCloses = s.breakerCounts()
			stats, err := r.fetchStats(ctx, s)
			if err != nil {
				st.Error = err.Error()
			} else {
				st.Stats = stats
			}
			statuses[i] = st
		}(i, s)
	}
	wg.Wait()
	// Every shard enters the merge: one that reported nothing contributes
	// zero-valued stats, so the aggregate's shard count is the fleet size,
	// not the live-shard count.
	per := make([]serve.Stats, len(statuses))
	rep := StatsReport{
		Shards:    statuses,
		Proxied:   r.proxied.Load(),
		Failovers: r.failovers.Load(),
		Errors:    r.errored.Load(),
	}
	for i, st := range statuses {
		if st.Stats != nil {
			per[i] = *st.Stats
		}
		if st.Healthy {
			rep.HealthyShards++
		}
		if st.PermanentlyDown {
			rep.PermanentlyDown++
		}
		rep.Restarts += st.Restarts
		rep.BreakerOpens += st.BreakerOpens
		rep.BreakerCloses += st.BreakerCloses
	}
	rep.Aggregate = serve.Merge(per...)
	return rep
}

func (r *Router) fetchStats(ctx context.Context, s *shardState) (*serve.Stats, error) {
	if s.isDown() {
		return nil, fmt.Errorf("shard permanently down")
	}
	var st serve.Stats
	if err := r.getJSON(ctx, 2*time.Second, s, "/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	api.WriteJSON(w, http.StatusOK, r.Report(req.Context()))
}

// handleMetrics renders the fleet in Prometheus text format: the
// serve.Merge aggregate under the same hybridnet_* names a single worker
// exposes (so dashboards work against either tier), router-level proxy
// counters, and per-shard health/breaker/restart series keyed by a "shard"
// label — the machine-readable form of everything /stats reports.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	rep := r.Report(req.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	obs.WriteServeStats(p, rep.Aggregate)
	p.Counter("hybridnet_router_proxied_total", "Client requests proxied by the router (any outcome).", float64(rep.Proxied))
	p.Counter("hybridnet_router_failovers_total", "Requests served by the second attempt after the first shard failed.", float64(rep.Failovers))
	p.Counter("hybridnet_router_errors_total", "Requests that surfaced a transport error to the client.", float64(rep.Errors))
	p.Gauge("hybridnet_router_shards", "Configured fleet size (healthy or not).", float64(len(rep.Shards)))
	p.Gauge("hybridnet_router_healthy_shards", "Shards currently routable (breaker closed, not permanently down).", float64(rep.HealthyShards))
	for _, sh := range rep.Shards {
		l := obs.Label{Name: "shard", Value: strconv.Itoa(sh.ID)}
		p.Gauge("hybridnet_shard_healthy", "1 when the shard is routable (breaker closed, not permanently down).", b2f(sh.Healthy), l)
		p.Gauge("hybridnet_shard_breaker_open", "1 when the shard's circuit breaker is open (excluded from placement).", b2f(!sh.Healthy), l)
		p.Gauge("hybridnet_shard_permanently_down", "1 when the shard's restart budget is exhausted.", b2f(sh.PermanentlyDown), l)
		p.Counter("hybridnet_shard_breaker_opens_total", "Breaker open transitions for this shard.", float64(sh.BreakerOpens), l)
		p.Counter("hybridnet_shard_breaker_closes_total", "Breaker close (re-admission) transitions for this shard.", float64(sh.BreakerCloses), l)
		p.Counter("hybridnet_shard_restarts_total", "Supervisor respawns of this shard's worker process.", float64(sh.Restarts), l)
		p.Gauge("hybridnet_shard_inflight", "Requests the router currently has in flight to this shard.", float64(sh.Inflight), l)
		p.Gauge("hybridnet_shard_queue_depth", "Queue depth the shard last reported on /healthz.", float64(sh.QueueDepth), l)
		for _, c := range serve.Classes {
			p.Gauge("hybridnet_shard_class_queue_depth", "Per-class queue depth the shard last reported on /healthz.",
				float64(sh.ClassQueueDepths[c.String()]), l, obs.Label{Name: "class", Value: c.String()})
		}
		p.Gauge("hybridnet_shard_service_time_seconds", "Per-image service time the shard last reported (adaptive-placement signal).", sh.ServiceTime.Seconds(), l)
	}
	if err := p.Err(); err != nil {
		r.cfg.Log.Warn("write metrics", "err", err)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleDebugRequests serves the fleet-wide flight recorder: every shard's
// /debug/requests dump (fetched in parallel) merged with the router's own,
// so one curl answers "what were the slowest requests anywhere".
func (r *Router) handleDebugRequests(w http.ResponseWriter, req *http.Request) {
	dumps := make([]obs.RecorderDump, len(r.shards)+1)
	dumps[len(r.shards)] = r.trace.Snapshot()
	var wg sync.WaitGroup
	for i, s := range r.shards {
		wg.Add(1)
		go func(i int, s *shardState) {
			defer wg.Done()
			d, err := r.fetchDump(req.Context(), s)
			if err != nil {
				return // an unreachable shard contributes nothing
			}
			dumps[i] = d
		}(i, s)
	}
	wg.Wait()
	api.WriteJSON(w, http.StatusOK, obs.MergeDumps(dumps...))
}

func (r *Router) fetchDump(ctx context.Context, s *shardState) (obs.RecorderDump, error) {
	var dump obs.RecorderDump
	if s.isDown() {
		return dump, fmt.Errorf("shard permanently down")
	}
	return dump, r.getJSON(ctx, 2*time.Second, s, "/debug/requests", &dump)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	body := api.FleetHealth{Status: "ok", Shards: len(r.shards), ClassQueueDepths: make(map[string]int64, serve.NumClasses)}
	for _, s := range r.shards {
		if s.healthy() {
			body.Healthy++
		}
		if s.isDown() {
			body.Down++
		}
		for _, c := range serve.Classes {
			body.ClassQueueDepths[c.String()] += s.classDepth[c].Load()
		}
	}
	status := http.StatusOK
	if body.Healthy == 0 {
		status = http.StatusServiceUnavailable
		body.Status = "no healthy shards"
	}
	api.WriteJSON(w, status, body)
}

// Shutdown stops the health loop and supervisors, then drains the fleet:
// spawned workers get SIGTERM (each drains its own scheduler before
// exiting) and are awaited until ctx expires, then killed. Attached workers
// are left running — the router does not own them. Idempotent.
func (r *Router) Shutdown(ctx context.Context) error {
	r.stopOnce.Do(func() { close(r.stop) })
	select {
	case <-r.done:
	case <-ctx.Done():
		return fmt.Errorf("shard: shutdown: %w", ctx.Err())
	}
	// Supervisors must be parked before the drain SIGTERMs workers, or an
	// exiting worker would race its own respawn. The wait is bounded: a
	// supervisor mid-spawn finishes within spawnReportTimeout.
	r.superWG.Wait()
	var errs []error
	for _, s := range r.shards {
		proc := s.currentProc()
		if proc == nil {
			continue
		}
		if err := proc.drain(ctx, r.cfg.Log); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s.id, err))
		}
	}
	return errors.Join(errs...)
}
