package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// candidate is one routable shard's placement signals, snapshotted by
// Router.pick from its probe state.
type candidate struct {
	// load is the class-effective backlog: requests the router has in
	// flight to the shard plus the queue depth a request of the class being
	// placed would wait behind.
	load int64
	// service is the per-image service time (ns) the shard last reported;
	// 0 means no estimate yet.
	service int64
}

// placer is power-of-two-choices scaled by service time: sample two
// distinct candidates, score each load+1, multiply by the probed service
// time when both report one, and the lower score wins. Equal scores fall to
// a round-robin cursor over the whole candidate slice. Safe for concurrent
// use.
//
// The service term compares measured shards only: a measured shard against
// an unmeasured one would mix units, so such a pair is compared on load.
type placer struct {
	mu  sync.Mutex
	rng *rand.Rand

	rr atomic.Uint64 // tie-break cursor
}

func newPlacer(seed int64) *placer {
	return &placer{rng: rand.New(rand.NewSource(seed))}
}

// pick returns the index of the chosen candidate.
func (p *placer) pick(cands []candidate) int {
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
	a, b := cands[i], cands[j]
	sa := float64(a.load + 1)
	sb := float64(b.load + 1)
	if a.service > 0 && b.service > 0 {
		sa *= float64(a.service)
		sb *= float64(b.service)
	}
	switch {
	case sa < sb:
		return i
	case sb < sa:
		return j
	default:
		return int(p.rr.Add(1) % uint64(len(cands)))
	}
}
