package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/shard"
)

// TestScenarioValidate pins the scripting error paths.
func TestScenarioValidate(t *testing.T) {
	base := func() Scenario {
		return Scenario{
			Name: "ok", Seed: 1, Duration: time.Second,
			Arrivals: []Phase{{Until: time.Second, RPS: 10}},
			Shards:   []ShardScript{{Curve: []Segment{{Service: time.Millisecond}}}},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	for name, breakIt := range map[string]func(*Scenario){
		"no name":          func(s *Scenario) { s.Name = "" },
		"no duration":      func(s *Scenario) { s.Duration = 0 },
		"no arrivals":      func(s *Scenario) { s.Arrivals = nil },
		"no shards":        func(s *Scenario) { s.Shards = nil },
		"rps negative":     func(s *Scenario) { s.Arrivals[0].RPS = -1 },
		"until regression": func(s *Scenario) { s.Arrivals = append(s.Arrivals, Phase{Until: time.Millisecond}) },
		"empty curve":      func(s *Scenario) { s.Shards[0].Curve = nil },
		"zero service":     func(s *Scenario) { s.Shards[0].Curve[0].Service = 0 },
	} {
		sc := base()
		breakIt(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// TestBuiltinsValid checks every CI scenario is runnable and the suite is
// big enough to mean something.
func TestBuiltinsValid(t *testing.T) {
	builtins := Builtins()
	if len(builtins) < 6 {
		t.Fatalf("want ≥ 6 builtin scenarios, have %d", len(builtins))
	}
	seen := map[string]bool{}
	for _, sc := range builtins {
		if err := sc.Validate(); err != nil {
			t.Errorf("builtin %s: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate builtin name %s", sc.Name)
		}
		seen[sc.Name] = true
		if got, err := Builtin(sc.Name); err != nil || got.Name != sc.Name {
			t.Errorf("Builtin(%s): %v", sc.Name, err)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Error("Builtin(no-such-scenario) did not fail")
	}
}

// TestScenarioJSONRoundTrip: scenarios survive the file format loadgen
// replays from.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, sc := range Builtins() {
		data, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.Name, err)
		}
		var back Scenario
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", sc.Name, err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", sc.Name, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: JSON round trip changed the scenario", sc.Name)
		}
	}
}

// TestDeterministic is the core guarantee: the same seed produces a
// byte-identical scenario report, twice, for every (scenario, policy).
func TestDeterministic(t *testing.T) {
	scenarios := Builtins()
	a, err := Matrix(scenarios, Policies())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Matrix(scenarios, Policies())
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Report(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Report(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Fatal("same seeds produced different reports")
	}
}

// TestConservation: every arrival resolves to exactly one of completed or
// shed, and per-shard completions sum to the total.
func TestConservation(t *testing.T) {
	for _, sc := range Builtins() {
		for _, pol := range Policies() {
			r, err := Run(sc, pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.Name, pol, err)
			}
			if r.Arrivals == 0 || r.Completed == 0 {
				t.Errorf("%s/%s: empty run (arrivals=%d completed=%d)", sc.Name, pol, r.Arrivals, r.Completed)
			}
			if r.Completed+r.Shed != r.Arrivals {
				t.Errorf("%s/%s: completed %d + shed %d != arrivals %d", sc.Name, pol, r.Completed, r.Shed, r.Arrivals)
			}
			var sum uint64
			for _, c := range r.ShardCompleted {
				sum += c
			}
			if sum != r.Completed {
				t.Errorf("%s/%s: shard completions sum %d != completed %d", sc.Name, pol, sum, r.Completed)
			}
		}
	}
}

// TestMatrix prints the full comparison table (go test -v) and enforces
// the CI tail-latency gates:
//
//   - each surviving policy keeps the scenarios it is there for:
//     weighted-p2c has the strictly lower p99 on heterogeneous,
//     step-degradation and ramp (and sheds no more), blind p2c on
//     adversarial-flap, where capacity signals flap faster than probes;
//   - every policy in Policies() has the strictly lowest p99 on at least
//     one builtin scenario, so a policy that does no job better than the
//     others fails CI instead of shipping.
func TestMatrix(t *testing.T) {
	comps, err := Matrix(Builtins(), Policies())
	if err != nil {
		t.Fatal(err)
	}
	wins := make(map[string][]string) // policy → scenarios it strictly wins on p99
	for _, c := range comps {
		best, tied := c.Results[0], false
		for i, r := range c.Results {
			t.Logf("%-22s %-13s p50=%-8v p99=%-9v p999=%-9v shed=%-5d completed=%d",
				c.Scenario, r.Policy, r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
				r.P999.Round(time.Microsecond), r.Shed, r.Completed)
			switch {
			case i == 0:
			case r.P99 < best.P99:
				best, tied = r, false
			case r.P99 == best.P99:
				tied = true
			}
		}
		if !tied {
			wins[best.Policy] = append(wins[best.Policy], c.Scenario)
		}
	}
	for _, pol := range Policies() {
		if len(wins[pol]) == 0 {
			t.Errorf("policy %s has the strictly lowest p99 on no builtin scenario: it does no job better than the others — delete it", pol)
		}
		t.Logf("%s wins %v", pol, wins[pol])
	}

	gate := func(scenario, winner, loser string) {
		t.Helper()
		for _, c := range comps {
			if c.Scenario != scenario {
				continue
			}
			w, ok1 := c.Find(winner)
			l, ok2 := c.Find(loser)
			if !ok1 || !ok2 {
				t.Fatalf("%s: policies missing from comparison", scenario)
			}
			if w.P99 >= l.P99 {
				t.Errorf("%s: %s p99 %v should be below %s p99 %v", scenario, winner, w.P99, loser, l.P99)
			}
			if w.Shed > l.Shed {
				t.Errorf("%s: %s shed %d > %s shed %d", scenario, winner, w.Shed, loser, l.Shed)
			}
			return
		}
		t.Fatalf("scenario %s missing from the matrix", scenario)
	}
	// Blind p2c losing to the capacity-aware policy on the heterogeneous
	// fleet doubles as the sanity check that the simulator can tell
	// policies apart at all. (The extreme fleet is the wrong place for it:
	// there the tail is set by forced {slow,slow} sample pairs that pin the
	// slow queues at cap under every policy, so p99s converge.)
	gate("heterogeneous", shard.PlacementWeightedP2C, shard.PlacementP2C)
	gate("step-degradation", shard.PlacementWeightedP2C, shard.PlacementP2C)
	gate("ramp", shard.PlacementWeightedP2C, shard.PlacementP2C)
	gate("adversarial-flap", shard.PlacementP2C, shard.PlacementWeightedP2C)
}

// ExampleReport keeps the report shape stable for doc readers.
func ExampleReport() {
	sc := Scenario{
		Name: "tiny", Seed: 7, Duration: 500 * time.Millisecond,
		Arrivals: []Phase{{Until: 500 * time.Millisecond, RPS: 100}},
		Shards: []ShardScript{
			{Curve: []Segment{{Service: 2 * time.Millisecond}}},
			{Curve: []Segment{{Service: 2 * time.Millisecond}}},
		},
	}
	r, err := Run(sc, shard.PlacementWeightedP2C)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(r.Scenario, r.Policy, r.Arrivals == r.Completed+r.Shed)
	// Output: tiny weighted-p2c true
}
