package shard

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
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

// TestP2CIgnoresCapacitySignals: with unit weights and adaptive off the
// placer is plain power-of-two-choices — service times do not matter.
func TestP2CIgnoresCapacitySignals(t *testing.T) {
	p := newPlacer(1, false)
	// Same load everywhere: picks spread roughly evenly (ties round-robin
	// across all three).
	cands := []candidate{
		{weight: 1, load: 5, service: 100},
		{weight: 1, load: 5, service: 900},
		{weight: 1, load: 5, service: 900},
	}
	counts := pickCounts(t, p, cands, 900)
	for i, c := range counts {
		if c < 200 {
			t.Fatalf("p2c skewed under equal load: counts=%v (shard %d)", counts, i)
		}
	}
	// Unequal load: the lightest shard must dominate.
	cands[0].load = 0
	counts = pickCounts(t, p, cands, 900)
	if counts[0] < counts[1] || counts[0] < counts[2] {
		t.Fatalf("p2c did not prefer the lightest shard: %v", counts)
	}
}

func TestWeightedP2CUsesServiceOnlyWhenBothReport(t *testing.T) {
	p := newPlacer(1, true)
	// Shard 0 is 10× slower by service time but unmeasured shard 1 exists:
	// a pair mixing measured and unmeasured compares on load/weight alone.
	mixed := []candidate{
		{weight: 1, load: 1, service: 1000},
		{weight: 1, load: 2, service: 0},
	}
	counts := pickCounts(t, p, mixed, 200)
	if counts[0] == 0 || counts[1] != 0 {
		t.Fatalf("mixed pair should fall back to load/weight (0 wins): %v", counts)
	}
	// Both measured: the slow shard loses despite equal load.
	both := []candidate{
		{weight: 1, load: 1, service: 1000},
		{weight: 1, load: 1, service: 10},
	}
	counts = pickCounts(t, p, both, 200)
	if counts[1] == 0 || counts[0] != 0 {
		t.Fatalf("measured pair should prefer the fast shard: %v", counts)
	}
}

// TestPlacerIdleFleet pins what an idle fleet does. With adaptive weights
// on, an idle measured pair has equal load terms, so the service estimate
// decides every pick and the shard with the lower (possibly stale)
// estimate takes all the traffic — the fleet-streams max_shard_share near
// 1. With adaptive off the scores tie and the cursor spreads the picks.
func TestPlacerIdleFleet(t *testing.T) {
	idle := []candidate{
		{weight: 1, load: 0, service: 700_000},
		{weight: 1, load: 0, service: 690_000},
	}
	if counts := pickCounts(t, newPlacer(1, true), idle, 1000); counts[1] != 1000 {
		t.Fatalf("adaptive: idle measured pair split %v, want every pick on the lower estimate", counts)
	}
	counts := pickCounts(t, newPlacer(1, false), idle, 1000)
	for i, c := range counts {
		if c < 400 {
			t.Fatalf("adaptive off: idle pair split %v, shard %d below 40%%", counts, i)
		}
	}
}

func TestPlacerDeterministic(t *testing.T) {
	cands := []candidate{
		{weight: 1, load: 1},
		{weight: 1, load: 2},
		{weight: 1, load: 3},
		{weight: 1, load: 1},
	}
	a, b := newPlacer(42, false), newPlacer(42, false)
	for k := 0; k < 1000; k++ {
		if ia, ib := a.pick(cands), b.pick(cands); ia != ib {
			t.Fatalf("pick %d diverged under the same seed: %d vs %d", k, ia, ib)
		}
	}
}

// pickGolden is testdata/pick_golden.json: the pick indices recorded over
// goldenCandidates when placement still had two named policies —
// weighted-p2c with adaptive weights on (Adaptive) and off (Weighted), and
// p2c on unit weights (Unit).
type pickGolden struct {
	Adaptive []int `json:"adaptive"`
	Weighted []int `json:"weighted"`
	Unit     []int `json:"unit"`
}

// goldenCandidates draws a seeded sequence of candidate slices: 2–5
// shards, loads 0–9, weights from {0.5, 1, 2} (all 1 when unit), and a
// service time that is unreported, one of three round values (so measured
// pairs tie), or arbitrary.
func goldenCandidates(unit bool) [][]candidate {
	rng := rand.New(rand.NewSource(26))
	weights := []float64{0.5, 1, 2}
	seq := make([][]candidate, 1000)
	for k := range seq {
		cands := make([]candidate, 2+rng.Intn(4))
		for i := range cands {
			c := candidate{weight: weights[rng.Intn(len(weights))], load: int64(rng.Intn(10))}
			switch rng.Intn(3) {
			case 1:
				c.service = int64(1+rng.Intn(3)) * 1e6
			case 2:
				c.service = 1 + rng.Int63n(1e7)
			}
			if unit {
				c.weight = 1
			}
			cands[i] = c
		}
		seq[k] = cands
	}
	return seq
}

func goldenPicks(adaptive, unit bool) []int {
	p := newPlacer(1, adaptive)
	seq := goldenCandidates(unit)
	picks := make([]int, len(seq))
	for k, cands := range seq {
		picks[k] = p.pick(cands)
	}
	return picks
}

// TestPlacerGoldenPicks replays the recorded pick sequences: same RNG
// draws, same scores, same tie-break cursor, so the same shard every time.
// Plain p2c is reproduced with adaptive weights off on unit weights.
func TestPlacerGoldenPicks(t *testing.T) {
	raw, err := os.ReadFile("testdata/pick_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want pickGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name           string
		adaptive, unit bool
		want           []int
	}{
		{"adaptive", true, false, want.Adaptive},
		{"weighted", false, false, want.Weighted},
		{"unit", false, true, want.Unit},
	} {
		if len(c.want) != 1000 {
			t.Fatalf("%s: recording holds %d picks, want 1000", c.name, len(c.want))
		}
		if got := goldenPicks(c.adaptive, c.unit); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: pick sequence diverged from the recording", c.name)
		}
	}
}
