// Package sim is the deterministic fleet simulator behind placement
// development: scripted fake shards (piecewise service-time curves — step
// changes, ramps, adversarial flapping, heterogeneous fleets), a seeded
// virtual clock, and the *real* placement code (shard.Placer) driven
// through discrete-event simulation. A full multi-second scenario runs in
// milliseconds of wall time, so head-to-head policy comparisons
// (p50/p99/p999 from the real mergeable histograms) run in CI on every
// build, and the same seed always produces a byte-identical report.
//
// The model mirrors the router faithfully where it matters for placement
// and stays simple everywhere else: each fake shard is a single-server
// FIFO queue with an admission bound; the simulated router sees each
// shard's live outstanding count (its own inflight bookkeeping) but only
// a probe-stale service-time signal, refreshed every ProbeInterval like
// the real health loop; a request refused by a full shard gets exactly one
// failover attempt before it is shed, like handleClassify.
package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// Scenario scripts one simulated run: an arrival schedule against a fleet
// of scripted shards. Scenarios are plain JSON (durations in nanoseconds)
// so the same files drive the simulator and `loadgen -scenario` replays
// against a real fleet.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed feeds every random stream of the run (arrival spacing, service
	// jitter, the placer's two-choices sampling). Same seed, same report.
	Seed int64 `json:"seed"`
	// Duration is how long arrivals keep coming; in-flight requests drain
	// past it.
	Duration time.Duration `json:"duration_ns"`
	// Warmup excludes requests arriving before this offset from the
	// latency histogram (they are still simulated and still count in the
	// arrival/shed totals): placement comparisons measure steady-state
	// behaviour, not the cold start where no shard has a service estimate
	// yet and every policy is equally blind.
	Warmup time.Duration `json:"warmup_ns,omitempty"`
	// ProbeInterval is the simulated health-probe period: how often the
	// router's view of each shard's service time refreshes.
	// 0 selects 250ms, the router default.
	ProbeInterval time.Duration `json:"probe_interval_ns,omitempty"`
	// Arrivals is the piecewise-constant arrival schedule: phase i applies
	// until its Until offset. Arrival spacing within a phase is
	// exponential (Poisson) from the seeded stream.
	Arrivals []Phase `json:"arrivals"`
	// Shards scripts the fleet.
	Shards []ShardScript `json:"shards"`
}

// Phase is one arrival-schedule segment: RPS applies until Until.
type Phase struct {
	Until time.Duration `json:"until_ns"`
	RPS   float64       `json:"rps"`
}

// ShardScript scripts one fake shard.
type ShardScript struct {
	// Weight is the static placement weight (0 = 1).
	Weight float64 `json:"weight,omitempty"`
	// QueueCap bounds outstanding requests (in service + waiting); an
	// arrival beyond it is refused, mirroring worker admission control.
	// 0 selects 32.
	QueueCap int `json:"queue_cap,omitempty"`
	// Curve is the piecewise-constant service-time script: segment i's
	// Service applies until its Until offset; the last segment extends to
	// the end of the run. Service jitter (±10%, seeded) is applied on top.
	Curve []Segment `json:"curve"`
}

// Segment is one service-time segment.
type Segment struct {
	Until   time.Duration `json:"until_ns"`
	Service time.Duration `json:"service_ns"`
}

// serviceAt returns the scripted base service time at offset t.
func (s ShardScript) serviceAt(t time.Duration) time.Duration {
	for _, seg := range s.Curve {
		if t < seg.Until {
			return seg.Service
		}
	}
	if len(s.Curve) == 0 {
		return time.Millisecond
	}
	return s.Curve[len(s.Curve)-1].Service
}

// rpsAt returns the scripted arrival rate at offset t, and the offset at
// which the current phase ends (Duration if t is past every phase).
func (sc Scenario) rpsAt(t time.Duration) (float64, time.Duration) {
	for _, p := range sc.Arrivals {
		if t < p.Until {
			return p.RPS, p.Until
		}
	}
	return 0, sc.Duration
}

// ArrivalOffsets is the scenario's arrival process as offsets from the
// start of the run: exponential spacing at each phase's rate from the
// seeded arrival stream (Seed+1), skipping zero-rate phases. A gap crossing
// into the next phase is re-drawn from the boundary at the new rate — close
// enough to an inhomogeneous Poisson process for scripting purposes, and
// deterministic. Run consumes it; `loadgen -scenario` replays the same
// offsets against a real fleet, so simulated and measured tails line up
// arrival for arrival.
func (sc Scenario) ArrivalOffsets() []time.Duration {
	rng := rand.New(rand.NewSource(sc.Seed + 1))
	var offs []time.Duration
	for t := time.Duration(0); t < sc.Duration; {
		rps, phaseEnd := sc.rpsAt(t)
		if rps <= 0 {
			t = phaseEnd
			continue
		}
		next := t + time.Duration(rng.ExpFloat64()/rps*float64(time.Second))
		if next >= sc.Duration {
			break
		}
		if next > phaseEnd {
			t = phaseEnd
			continue
		}
		offs = append(offs, next)
		t = next
	}
	return offs
}

// Validate checks a scenario is runnable.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("sim: scenario needs a name")
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("sim: scenario %s: duration must be > 0", sc.Name)
	}
	if sc.Warmup < 0 || sc.Warmup >= sc.Duration {
		return fmt.Errorf("sim: scenario %s: warmup %v outside [0, duration)", sc.Name, sc.Warmup)
	}
	if len(sc.Arrivals) == 0 {
		return fmt.Errorf("sim: scenario %s: needs at least one arrival phase", sc.Name)
	}
	if len(sc.Shards) == 0 {
		return fmt.Errorf("sim: scenario %s: needs at least one shard", sc.Name)
	}
	last := time.Duration(0)
	for i, p := range sc.Arrivals {
		if p.Until <= last {
			return fmt.Errorf("sim: scenario %s: arrival phase %d: until %v not increasing", sc.Name, i, p.Until)
		}
		if p.RPS < 0 {
			return fmt.Errorf("sim: scenario %s: arrival phase %d: negative rps", sc.Name, i)
		}
		last = p.Until
	}
	for i, sh := range sc.Shards {
		if len(sh.Curve) == 0 {
			return fmt.Errorf("sim: scenario %s: shard %d: empty service curve", sc.Name, i)
		}
		if sh.Weight < 0 || sh.QueueCap < 0 {
			return fmt.Errorf("sim: scenario %s: shard %d: negative weight or queue cap", sc.Name, i)
		}
		for j, seg := range sh.Curve {
			if seg.Service <= 0 {
				return fmt.Errorf("sim: scenario %s: shard %d segment %d: service must be > 0", sc.Name, i, j)
			}
		}
	}
	return nil
}

// LoadScenario reads a Scenario from a JSON file.
func LoadScenario(path string) (Scenario, error) {
	var sc Scenario
	data, err := os.ReadFile(path)
	if err != nil {
		return sc, err
	}
	if err := json.Unmarshal(data, &sc); err != nil {
		return sc, fmt.Errorf("sim: parse %s: %w", path, err)
	}
	return sc, sc.Validate()
}

// Builtin returns the named builtin scenario.
func Builtin(name string) (Scenario, error) {
	for _, sc := range Builtins() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("sim: no builtin scenario %q (have %s)", name, builtinNames())
}

func builtinNames() string {
	names := ""
	for i, sc := range Builtins() {
		if i > 0 {
			names += ", "
		}
		names += sc.Name
	}
	return names
}

// ms is a readability helper for the builtin scripts.
func ms(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

// Builtins is the CI scenario suite: the fleet shapes placement has to
// survive. Each run lasts a few simulated seconds and executes in
// milliseconds.
func Builtins() []Scenario {
	sec := time.Second
	return []Scenario{
		{
			Name:        "uniform",
			Description: "4 identical shards at moderate load; any sane policy ties here",
			Seed:        1, Duration: 8 * sec, Warmup: 2 * sec,
			Arrivals: []Phase{{Until: 8 * sec, RPS: 400}},
			Shards: []ShardScript{
				{Curve: []Segment{{Service: ms(5)}}},
				{Curve: []Segment{{Service: ms(5)}}},
				{Curve: []Segment{{Service: ms(5)}}},
				{Curve: []Segment{{Service: ms(5)}}},
			},
		},
		{
			Name:        "heterogeneous",
			Description: "2×fast + 1×medium + 1×slow near saturation; capacity-blind placement queues on the slow shard",
			Seed:        1, Duration: 8 * sec, Warmup: 2 * sec,
			Arrivals: []Phase{{Until: 8 * sec, RPS: 450}},
			Shards: []ShardScript{
				{Curve: []Segment{{Service: ms(3)}}},
				{Curve: []Segment{{Service: ms(3)}}},
				{Curve: []Segment{{Service: ms(6)}}},
				{Curve: []Segment{{Service: ms(20)}}},
			},
		},
		{
			Name:        "heterogeneous-extreme",
			Description: "2×1ms + 2×25ms: a 25× capacity spread, sustained",
			Seed:        1, Duration: 8 * sec, Warmup: 2 * sec,
			Arrivals: []Phase{{Until: 8 * sec, RPS: 1200}},
			Shards: []ShardScript{
				{Curve: []Segment{{Service: ms(1)}}},
				{Curve: []Segment{{Service: ms(1)}}},
				{Curve: []Segment{{Service: ms(25)}}},
				{Curve: []Segment{{Service: ms(25)}}},
			},
		},
		{
			Name:        "step-degradation",
			Description: "one of 4 shards degrades 10× for the middle third, then recovers",
			Seed:        1, Duration: 9 * sec, Warmup: 2 * sec,
			Arrivals: []Phase{{Until: 9 * sec, RPS: 500}},
			Shards: []ShardScript{
				{Curve: []Segment{{Until: 3 * sec, Service: ms(4)}, {Until: 6 * sec, Service: ms(40)}, {Service: ms(4)}}},
				{Curve: []Segment{{Service: ms(4)}}},
				{Curve: []Segment{{Service: ms(4)}}},
				{Curve: []Segment{{Service: ms(4)}}},
			},
		},
		{
			Name:        "adversarial-flap",
			Description: "one shard flaps 2ms↔30ms every 750ms — stale signals chase it; another is steadily slow",
			Seed:        1, Duration: 9 * sec, Warmup: 2 * sec,
			Arrivals: []Phase{{Until: 9 * sec, RPS: 450}},
			Shards: []ShardScript{
				{Curve: flapCurve(9*sec, 750*time.Millisecond, ms(2), ms(30))},
				{Curve: []Segment{{Service: ms(10)}}},
				{Curve: []Segment{{Service: ms(4)}}},
				{Curve: []Segment{{Service: ms(4)}}},
			},
		},
		{
			Name:        "ramp",
			Description: "one shard ramps 3ms→30ms in 9 steps while the rest hold; gradual drift, no clean step to latch onto",
			Seed:        1, Duration: 9 * sec, Warmup: 2 * sec,
			Arrivals: []Phase{{Until: 9 * sec, RPS: 450}},
			Shards: []ShardScript{
				{Curve: rampCurve(9*sec, 9, ms(3), ms(30))},
				{Curve: []Segment{{Service: ms(4)}}},
				{Curve: []Segment{{Service: ms(4)}}},
				{Curve: []Segment{{Service: ms(4)}}},
			},
		},
		{
			Name:        "overload-burst",
			Description: "heterogeneous fleet hit by a 2.5s burst beyond fleet capacity; shedding and recovery behaviour",
			Seed:        1, Duration: 9 * sec, Warmup: 2 * sec,
			Arrivals: []Phase{
				{Until: 3 * sec, RPS: 300},
				{Until: 5500 * time.Millisecond, RPS: 1100},
				{Until: 9 * sec, RPS: 300},
			},
			Shards: []ShardScript{
				{Curve: []Segment{{Service: ms(3)}}},
				{Curve: []Segment{{Service: ms(3)}}},
				{Curve: []Segment{{Service: ms(8)}}},
				{Curve: []Segment{{Service: ms(8)}}},
			},
		},
	}
}

// flapCurve scripts a square wave between lo and hi with the given half
// period, long enough to cover total.
func flapCurve(total, half time.Duration, lo, hi time.Duration) []Segment {
	var segs []Segment
	svc := lo
	for at := half; at < total+half; at += half {
		segs = append(segs, Segment{Until: at, Service: svc})
		if svc == lo {
			svc = hi
		} else {
			svc = lo
		}
	}
	return segs
}

// rampCurve scripts a staircase from lo to hi in steps equal segments.
func rampCurve(total time.Duration, steps int, lo, hi time.Duration) []Segment {
	segs := make([]Segment, steps)
	for i := 0; i < steps; i++ {
		frac := float64(i) / float64(steps-1)
		segs[i] = Segment{
			Until:   total * time.Duration(i+1) / time.Duration(steps),
			Service: lo + time.Duration(frac*float64(hi-lo)),
		}
	}
	return segs
}
