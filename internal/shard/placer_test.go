package shard

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

// pickCounts runs n picks over cands and tallies the winners.
func pickCounts(t *testing.T, p *placer, cands []candidate, n int) []int {
	t.Helper()
	counts := make([]int, len(cands))
	for k := 0; k < n; k++ {
		i := p.pick(cands)
		if i < 0 || i >= len(cands) {
			t.Fatalf("pick returned %d for %d candidates", i, len(cands))
		}
		counts[i]++
	}
	return counts
}

func TestWeightedP2CUsesServiceOnlyWhenBothReport(t *testing.T) {
	p := newPlacer(1)
	// Shard 0 is 10× slower by service time but unmeasured shard 1 exists:
	// a pair mixing measured and unmeasured compares on load alone.
	mixed := []candidate{
		{load: 1, service: 1000},
		{load: 2, service: 0},
	}
	counts := pickCounts(t, p, mixed, 200)
	if counts[0] == 0 || counts[1] != 0 {
		t.Fatalf("mixed pair should fall back to load (0 wins): %v", counts)
	}
	// Both measured: the slow shard loses despite equal load.
	both := []candidate{
		{load: 1, service: 1000},
		{load: 1, service: 10},
	}
	counts = pickCounts(t, p, both, 200)
	if counts[1] == 0 || counts[0] != 0 {
		t.Fatalf("measured pair should prefer the fast shard: %v", counts)
	}
}

// TestPlacerIdleFleet pins what an idle fleet does: an idle measured pair
// has equal load terms, so the service estimate decides every pick and the
// shard with the lower (possibly stale) estimate takes all the traffic —
// the fleet-streams max_shard_share near 1.
func TestPlacerIdleFleet(t *testing.T) {
	idle := []candidate{
		{load: 0, service: 700_000},
		{load: 0, service: 690_000},
	}
	if counts := pickCounts(t, newPlacer(1), idle, 1000); counts[1] != 1000 {
		t.Fatalf("idle measured pair split %v, want every pick on the lower estimate", counts)
	}
}

func TestPlacerDeterministic(t *testing.T) {
	cands := []candidate{
		{load: 1},
		{load: 2},
		{load: 3},
		{load: 1},
	}
	a, b := newPlacer(42), newPlacer(42)
	for k := 0; k < 1000; k++ {
		if ia, ib := a.pick(cands), b.pick(cands); ia != ib {
			t.Fatalf("pick %d diverged under the same seed: %d vs %d", k, ia, ib)
		}
	}
}

// goldenCandidates draws a seeded sequence of candidate slices: 2–5
// shards, loads 0–9, and a service time that is unreported, one of three
// round values (so measured pairs tie), or arbitrary.
func goldenCandidates() [][]candidate {
	rng := rand.New(rand.NewSource(26))
	seq := make([][]candidate, 1000)
	for k := range seq {
		cands := make([]candidate, 2+rng.Intn(4))
		for i := range cands {
			c := candidate{load: int64(rng.Intn(10))}
			switch rng.Intn(3) {
			case 1:
				c.service = int64(1+rng.Intn(3)) * 1e6
			case 2:
				c.service = 1 + rng.Int63n(1e7)
			}
			cands[i] = c
		}
		seq[k] = cands
	}
	return seq
}

// TestPlacerGoldenPicks replays testdata/pick_golden.json: the picks
// recorded over goldenCandidates from the placer as the router binary ran
// it before the capacity knobs went (adaptive weights on, every static
// weight 1). Same RNG draws, same scores, same tie-break cursor, so the
// same shard every time.
func TestPlacerGoldenPicks(t *testing.T) {
	raw, err := os.ReadFile("testdata/pick_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Picks []int `json:"picks"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Picks) != 1000 {
		t.Fatalf("recording holds %d picks, want 1000", len(want.Picks))
	}
	p := newPlacer(1)
	for k, cands := range goldenCandidates() {
		if got := p.pick(cands); got != want.Picks[k] {
			t.Fatalf("pick %d = %d, recorded %d: the sequence diverged", k, got, want.Picks[k])
		}
	}
}
