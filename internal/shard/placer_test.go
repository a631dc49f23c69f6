package shard

import (
	"testing"
)

func TestNewPlacerNames(t *testing.T) {
	for _, name := range append(PlacementNames(), "") {
		p, err := NewPlacer(name, PlacerOptions{Seed: 1})
		if err != nil {
			t.Fatalf("NewPlacer(%q): %v", name, err)
		}
		if name != "" && p.Name() != name {
			t.Fatalf("NewPlacer(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := NewPlacer("", PlacerOptions{}); err != nil || p.Name() != PlacementWeightedP2C {
		t.Fatalf("empty policy: got (%v, %v), want weighted-p2c", p, err)
	}
	if _, err := NewPlacer("bogus", PlacerOptions{}); err == nil {
		t.Fatal("NewPlacer(bogus) did not fail")
	}
}

// pickCounts runs n picks over cands and tallies the winners.
func pickCounts(t *testing.T, p Placer, cands []Candidate, n int) []int {
	t.Helper()
	counts := make([]int, len(cands))
	for k := 0; k < n; k++ {
		i := p.Pick(cands)
		if i < 0 || i >= len(cands) {
			t.Fatalf("Pick returned %d for %d candidates", i, len(cands))
		}
		counts[i]++
	}
	return counts
}

func TestP2CIgnoresCapacitySignals(t *testing.T) {
	p, _ := NewPlacer(PlacementP2C, PlacerOptions{Seed: 1})
	// Same load everywhere: capacity signals must not matter, so picks
	// spread roughly evenly (ties round-robin across all three).
	cands := []Candidate{
		{ID: 0, StaticWeight: 8, Load: 5, Service: 100},
		{ID: 1, StaticWeight: 1, Load: 5, Service: 900},
		{ID: 2, StaticWeight: 1, Load: 5, Service: 900},
	}
	counts := pickCounts(t, p, cands, 900)
	for i, c := range counts {
		if c < 200 {
			t.Fatalf("p2c skewed under equal load: counts=%v (shard %d)", counts, i)
		}
	}
	// Unequal load: the lightest shard must dominate.
	cands[0].Load = 0
	counts = pickCounts(t, p, cands, 900)
	if counts[0] < counts[1] || counts[0] < counts[2] {
		t.Fatalf("p2c did not prefer the lightest shard: %v", counts)
	}
}

func TestWeightedP2CUsesServiceOnlyWhenBothReport(t *testing.T) {
	p, _ := NewPlacer(PlacementWeightedP2C, PlacerOptions{Seed: 1, AdaptiveWeights: true})
	// Shard 0 is 10× slower by service time but unmeasured shard 1 exists:
	// a pair mixing measured and unmeasured compares on load/weight alone.
	mixed := []Candidate{
		{ID: 0, StaticWeight: 1, Load: 1, Service: 1000},
		{ID: 1, StaticWeight: 1, Load: 2, Service: 0},
	}
	counts := pickCounts(t, p, mixed, 200)
	if counts[0] == 0 || counts[1] != 0 {
		t.Fatalf("mixed pair should fall back to load/weight (0 wins): %v", counts)
	}
	// Both measured: the slow shard loses despite equal load.
	both := []Candidate{
		{ID: 0, StaticWeight: 1, Load: 1, Service: 1000},
		{ID: 1, StaticWeight: 1, Load: 1, Service: 10},
	}
	counts = pickCounts(t, p, both, 200)
	if counts[1] == 0 || counts[0] != 0 {
		t.Fatalf("measured pair should prefer the fast shard: %v", counts)
	}
}

func TestPlacerDeterministic(t *testing.T) {
	cands := []Candidate{
		{ID: 0, StaticWeight: 1, Load: 1},
		{ID: 1, StaticWeight: 1, Load: 2},
		{ID: 2, StaticWeight: 1, Load: 3},
		{ID: 3, StaticWeight: 1, Load: 1},
	}
	a, _ := NewPlacer(PlacementP2C, PlacerOptions{Seed: 42})
	b, _ := NewPlacer(PlacementP2C, PlacerOptions{Seed: 42})
	for k := 0; k < 1000; k++ {
		if ia, ib := a.Pick(cands), b.Pick(cands); ia != ib {
			t.Fatalf("pick %d diverged under the same seed: %d vs %d", k, ia, ib)
		}
	}
}
