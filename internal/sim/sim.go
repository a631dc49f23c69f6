package sim

import (
	"container/heap"
	"encoding/json"
	"math/rand"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// Result is one (scenario, policy) run's report. All latency fields come
// from a serve.Histogram over completed requests — the same mergeable
// log-bucketed histogram the serving plane reports — so simulated and
// production quantiles share bucket semantics. Runs are deterministic:
// same scenario, same policy → a byte-identical marshaled Result.
type Result struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`

	Arrivals  uint64 `json:"arrivals"`  // requests offered to the fleet
	Completed uint64 `json:"completed"` // served
	Shed      uint64 `json:"shed"`      // refused by both attempts
	Failovers uint64 `json:"failovers"` // saved by the second attempt

	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`

	// ShardCompleted is the per-shard completion split — how the policy
	// actually spread the work.
	ShardCompleted []uint64 `json:"shard_completed"`
}

// event kinds, processed in (at, seq) order so simultaneous events keep
// their scheduling order and every run replays identically.
const (
	evArrival = iota
	evDeparture
	evProbe
)

type event struct {
	at    time.Duration
	seq   uint64
	kind  int
	shard int           // evDeparture: which shard finishes its head request
	enq   time.Duration // evDeparture: when the finishing request arrived
	svc   time.Duration // evDeparture: the request's drawn service time
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// simShard is one scripted fake worker: a single-server FIFO queue with
// an admission bound and a per-completion service-time EWMA (α=1/8, exactly
// statsState.batchDone). The wrapping simulation keeps the router's view of
// the EWMA probe-stale.
type simShard struct {
	id     int
	script ShardScript
	cap    int

	waiting []time.Duration // admission times of queued (not in service) requests
	busy    bool
	ewma    time.Duration // per-request service EWMA, the worker-local estimate

	completed uint64

	// probedService is the router's probe-stale view of ewma, refreshed at
	// probe events.
	probedService int64
}

// outstanding is what the simulated router has in flight to this shard:
// queued plus in-service. This is live (the router's own bookkeeping),
// unlike the probed signals.
func (s *simShard) outstanding() int64 {
	n := int64(len(s.waiting))
	if s.busy {
		n++
	}
	return n
}

// admit tries to accept a request arriving at now; reports success.
func (s *simShard) admit(now time.Duration) bool {
	if s.outstanding() >= int64(s.cap) {
		return false
	}
	s.waiting = append(s.waiting, now)
	return true
}

// observe folds one completed request's service time into the worker-local
// EWMA, mirroring statsState.batchDone for batch size 1.
func (s *simShard) observe(svc time.Duration) {
	if s.ewma == 0 {
		s.ewma = svc
	} else {
		s.ewma += (svc - s.ewma) / 8
	}
}

func (s *simShard) candidate() shard.Candidate {
	return shard.Candidate{
		ID:           s.id,
		StaticWeight: s.script.Weight,
		Load:         s.outstanding(),
		Service:      s.probedService,
	}
}

// Run simulates one scenario under one placement policy and returns its
// report. The virtual clock is a Duration offset from a fixed epoch; no
// wall-clock reads happen anywhere, so a (scenario, policy) pair always
// produces the identical Result.
func Run(sc Scenario, policy string) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	placer, err := shard.NewPlacer(policy, shard.PlacerOptions{
		Seed: sc.Seed,
		// The weighted policy runs with its service-time term on — the
		// strongest baseline; p2c ignores it.
		AdaptiveWeights: true,
	})
	if err != nil {
		return Result{}, err
	}
	probeEvery := sc.ProbeInterval
	if probeEvery == 0 {
		probeEvery = 250 * time.Millisecond
	}
	shards := make([]*simShard, len(sc.Shards))
	for i, script := range sc.Shards {
		if script.Weight == 0 {
			script.Weight = 1
		}
		capacity := script.QueueCap
		if capacity == 0 {
			capacity = 32
		}
		shards[i] = &simShard{id: i, script: script, cap: capacity}
	}

	// Independent seeded streams (arrivals: Seed+1 inside ArrivalOffsets,
	// service jitter: Seed+2, the placer: Seed) so arrival spacing, service
	// jitter and the placer's sampling cannot perturb each other across
	// policies.
	serviceRng := rand.New(rand.NewSource(sc.Seed + 2))

	res := Result{Scenario: sc.Name, Policy: placer.Name()}
	lat := serve.NewHistogram()

	var events eventHeap
	var seq uint64
	push := func(e event) {
		seq++
		e.seq = seq
		heap.Push(&events, e)
	}

	// scheduleArrival books the next arrival. One at a time, so an arrival's
	// seq — its rank among simultaneous events — is taken when its
	// predecessor fires.
	arrivals := sc.ArrivalOffsets()
	scheduleArrival := func() {
		if len(arrivals) > 0 {
			push(event{at: arrivals[0], kind: evArrival})
			arrivals = arrivals[1:]
		}
	}

	// startService begins serving the shard's queue head, drawing the
	// scripted service time at start-of-service with ±10% seeded jitter.
	startService := func(s *simShard, now time.Duration) {
		enq := s.waiting[0]
		s.waiting = s.waiting[1:]
		s.busy = true
		svc := s.script.serviceAt(now)
		jitter := 0.9 + 0.2*serviceRng.Float64()
		svc = time.Duration(float64(svc) * jitter)
		if svc <= 0 {
			svc = time.Nanosecond
		}
		push(event{at: now + svc, kind: evDeparture, shard: s.id, enq: enq, svc: svc})
	}

	// probe refreshes the router's stale view of every shard — what a
	// /healthz probe round does.
	probe := func() {
		for _, s := range shards {
			s.probedService = int64(s.ewma)
		}
	}

	// place picks a target like Router.pick: every sim shard is healthy,
	// so the routable set is the fleet minus the failed first attempt.
	place := func(exclude int) *simShard {
		cands := make([]shard.Candidate, 0, len(shards))
		idx := make([]int, 0, len(shards))
		for _, s := range shards {
			if s.id == exclude {
				continue
			}
			cands = append(cands, s.candidate())
			idx = append(idx, s.id)
		}
		if len(cands) == 0 {
			return nil
		}
		return shards[idx[placer.Pick(cands)]]
	}

	probe() // the router probes before serving, like WaitReady
	push(event{at: probeEvery, kind: evProbe})
	scheduleArrival()

	for events.Len() > 0 {
		e := heap.Pop(&events).(event)
		switch e.kind {
		case evProbe:
			probe()
			if e.at < sc.Duration {
				push(event{at: e.at + probeEvery, kind: evProbe})
			}
		case evArrival:
			res.Arrivals++
			first := place(-1)
			target := first
			if !first.admit(e.at) {
				// One failover, mirroring handleClassify: a refused
				// arrival gets a second pick excluding the full shard.
				target = nil
				if second := place(first.id); second != nil && second.admit(e.at) {
					res.Failovers++
					target = second
				}
			}
			if target == nil {
				res.Shed++
			} else if !target.busy {
				startService(target, e.at)
			}
			scheduleArrival()
		case evDeparture:
			s := shards[e.shard]
			s.busy = false
			s.completed++
			res.Completed++
			if e.enq >= sc.Warmup {
				lat.Observe(e.at - e.enq)
			}
			s.observe(e.svc) // the worker measures its own actual speed
			if len(s.waiting) > 0 {
				startService(s, e.at)
			}
		}
	}

	if lat.Count() > 0 {
		res.P50 = lat.Quantile(0.50)
		res.P99 = lat.Quantile(0.99)
		res.P999 = lat.Quantile(0.999)
		res.Max = lat.Max()
	}
	res.ShardCompleted = make([]uint64, len(shards))
	for i, s := range shards {
		res.ShardCompleted[i] = s.completed
	}
	return res, nil
}

// Comparison is one scenario's head-to-head policy results.
type Comparison struct {
	Scenario    string   `json:"scenario"`
	Description string   `json:"description,omitempty"`
	Results     []Result `json:"results"`
}

// Policies is the comparison set every scenario runs under: every policy
// the router accepts, so a new one cannot skip the matrix.
func Policies() []string { return shard.PlacementNames() }

// Matrix runs every scenario under every policy: the CI comparison table.
func Matrix(scenarios []Scenario, policies []string) ([]Comparison, error) {
	comps := make([]Comparison, 0, len(scenarios))
	for _, sc := range scenarios {
		comp := Comparison{Scenario: sc.Name, Description: sc.Description}
		for _, pol := range policies {
			r, err := Run(sc, pol)
			if err != nil {
				return nil, err
			}
			comp.Results = append(comp.Results, r)
		}
		comps = append(comps, comp)
	}
	return comps, nil
}

// Report marshals comparisons deterministically (indented JSON): the
// byte-identical scenario report the determinism guarantee is stated over.
func Report(comps []Comparison) ([]byte, error) {
	return json.MarshalIndent(comps, "", "  ")
}

// Find returns the named policy's result within a comparison.
func (c Comparison) Find(policy string) (Result, bool) {
	for _, r := range c.Results {
		if r.Policy == policy {
			return r, true
		}
	}
	return Result{}, false
}
