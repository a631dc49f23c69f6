package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Candidate is one routable shard's placement signals, as a Placer sees
// them: a snapshot assembled by the caller (the Router from its probe
// state, the simulator from its scripted fleet), so policies are pure
// decision logic with no knowledge of HTTP, probing, or virtual clocks.
type Candidate struct {
	// ID is the shard's stable identifier, for diagnostics only — Pick
	// returns an index into the candidate slice, not an ID.
	ID int
	// StaticWeight is the configured capacity weight (> 0; 1 = neutral).
	StaticWeight float64
	// Load is the class-effective backlog: requests the caller has in
	// flight to the shard plus the queue depth a request of the class
	// being placed would wait behind.
	Load int64
	// Service is the per-image service time (ns) the shard last reported;
	// 0 means no estimate yet.
	Service int64
}

// Placer chooses one shard among the routable candidates. Implementations
// must be safe for concurrent use; Pick is called with len(cands) ≥ 1 and
// returns an index into cands.
//
// Placer is the seam between placement policy and everything else: the
// Router feeds it live probe state, internal/sim feeds it scripted fleets
// on a virtual clock, so a policy benchmarked in simulation is bit-for-bit
// the code that routes production traffic.
type Placer interface {
	// Name reports the policy name this placer was built from.
	Name() string
	// Pick returns the index of the chosen candidate.
	Pick(cands []Candidate) int
}

// Placement policy names accepted by NewPlacer and Config.Placement.
const (
	// PlacementP2C is unweighted power-of-two-choices: lowest
	// class-effective load wins, ignoring static weights and service
	// times. The PR-3 baseline.
	PlacementP2C = "p2c"
	// PlacementWeightedP2C scores (load+1)/staticWeight, multiplied by the
	// probed service time when PlacerOptions.AdaptiveWeights is set and
	// both candidates report one. The PR-4 heuristic and the default.
	PlacementWeightedP2C = "weighted-p2c"
)

// PlacementNames lists the accepted policy names, sorted.
func PlacementNames() []string {
	names := []string{PlacementP2C, PlacementWeightedP2C}
	sort.Strings(names)
	return names
}

// PlacerOptions parameterise NewPlacer.
type PlacerOptions struct {
	// Seed feeds the two-choices sampling. Same seed, same candidate
	// sequence → same decisions: the simulator's determinism rests here.
	Seed int64
	// AdaptiveWeights enables the service-time term in weighted-p2c
	// scoring, mirroring Config.AdaptiveWeights.
	AdaptiveWeights bool
}

// NewPlacer builds the named placement policy. An empty name selects
// weighted-p2c (the historical default).
func NewPlacer(name string, opts PlacerOptions) (Placer, error) {
	switch name {
	case PlacementP2C:
		return newP2CPlacer(name, opts.Seed, scoreP2C), nil
	case "", PlacementWeightedP2C:
		return newP2CPlacer(PlacementWeightedP2C, opts.Seed, scoreWeighted(opts.AdaptiveWeights)), nil
	default:
		return nil, fmt.Errorf("shard: unknown placement policy %q (have %s)",
			name, strings.Join(PlacementNames(), ", "))
	}
}

// scoreFunc scores a sampled pair. Lower wins; equal falls to the
// round-robin cursor. Scoring is pairwise (not per-candidate) because the
// unit-mixing rules are pairwise: a measured shard and an unmeasured one
// must be compared in common units, whatever each knows individually.
type scoreFunc func(a, b Candidate) (sa, sb float64)

// scoreP2C ignores every capacity signal: raw class-effective load.
func scoreP2C(a, b Candidate) (float64, float64) {
	return float64(a.Load + 1), float64(b.Load + 1)
}

// scoreWeighted is the PR-4 heuristic: load per static capacity, scaled by
// measured service time only when adaptive weighting is on and both
// candidates have an estimate (comparing a measured shard against an
// unmeasured one would mix units).
func scoreWeighted(adaptive bool) scoreFunc {
	return func(a, b Candidate) (float64, float64) {
		sa := float64(a.Load+1) / a.StaticWeight
		sb := float64(b.Load+1) / b.StaticWeight
		if adaptive && a.Service > 0 && b.Service > 0 {
			sa *= float64(a.Service)
			sb *= float64(b.Service)
		}
		return sa, sb
	}
}

// p2cPlacer is the one sampling engine behind every policy: sample two
// distinct candidates, score the pair, lower score wins, ties fall to a
// shared round-robin cursor over the whole candidate slice. Policies
// differ only in the scoreFunc.
type p2cPlacer struct {
	name  string
	score scoreFunc

	mu  sync.Mutex
	rng *rand.Rand

	rr atomic.Uint64 // tie-break cursor
}

func newP2CPlacer(name string, seed int64, score scoreFunc) *p2cPlacer {
	return &p2cPlacer{name: name, score: score, rng: rand.New(rand.NewSource(seed))}
}

func (p *p2cPlacer) Name() string { return p.name }

func (p *p2cPlacer) Pick(cands []Candidate) int {
	if len(cands) <= 1 {
		return 0
	}
	p.mu.Lock()
	i := p.rng.Intn(len(cands))
	j := p.rng.Intn(len(cands) - 1)
	p.mu.Unlock()
	if j >= i {
		j++
	}
	sa, sb := p.score(cands[i], cands[j])
	switch {
	case sa < sb:
		return i
	case sb < sa:
		return j
	default:
		return int(p.rr.Add(1) % uint64(len(cands)))
	}
}
