package fault

import (
	"fmt"
	"runtime"

	"repro/internal/pool"
)

// Outcome classifies the result of one fault-injection trial, following the
// standard taxonomy of the dependability literature the paper builds on.
type Outcome int

const (
	// OutcomeMasked: a fault was injected but the final output is correct
	// and no error was signalled (the fault was architecturally masked,
	// e.g. voted away by TMR or numerically absorbed).
	OutcomeMasked Outcome = iota + 1
	// OutcomeCorrected: an error was detected and transparently repaired
	// (retry/rollback succeeded); the output is correct.
	OutcomeCorrected
	// OutcomeDetected: an error was detected but could not be repaired —
	// a detected unrecoverable error (DUE). The application sees a failure
	// signal, not wrong data.
	OutcomeDetected
	// OutcomeSDC: silent data corruption — the output is wrong and nothing
	// was signalled. The failure mode reliability engineering exists to
	// eliminate.
	OutcomeSDC
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeMasked:
		return "masked"
	case OutcomeCorrected:
		return "corrected"
	case OutcomeDetected:
		return "detected"
	case OutcomeSDC:
		return "sdc"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Tally accumulates trial outcomes. The zero value is ready to use.
type Tally struct {
	Masked    int
	Corrected int
	Detected  int
	SDC       int
}

// Merge accumulates another tally into t — the reduction step of a
// parallel campaign.
func (t *Tally) Merge(o Tally) {
	t.Masked += o.Masked
	t.Corrected += o.Corrected
	t.Detected += o.Detected
	t.SDC += o.SDC
}

// Add records one outcome. Unknown outcomes are counted as SDC, the
// conservative choice.
func (t *Tally) Add(o Outcome) {
	switch o {
	case OutcomeMasked:
		t.Masked++
	case OutcomeCorrected:
		t.Corrected++
	case OutcomeDetected:
		t.Detected++
	default:
		t.SDC++
	}
}

// Total returns the number of recorded trials.
func (t Tally) Total() int { return t.Masked + t.Corrected + t.Detected + t.SDC }

// SDCRate returns the fraction of trials ending in silent data corruption.
func (t Tally) SDCRate() float64 {
	if t.Total() == 0 {
		return 0
	}
	return float64(t.SDC) / float64(t.Total())
}

// Coverage returns the fraction of trials in which the fault was either
// harmless or signalled — 1 − SDCRate. This is the quantity the paper's
// "reliability guarantee" bounds.
func (t Tally) Coverage() float64 { return 1 - t.SDCRate() }

// String renders the tally as a single report line.
func (t Tally) String() string {
	return fmt.Sprintf("trials=%d masked=%d corrected=%d detected=%d sdc=%d coverage=%.4f",
		t.Total(), t.Masked, t.Corrected, t.Detected, t.SDC, t.Coverage())
}

// Classify maps a trial's (correct, signalled) observation to an Outcome.
// Note that a signalled-and-correct run counts as Corrected (the machinery
// detected a fault and repaired or absorbed it), while signalled-and-wrong is
// Detected (DUE: wrong data, but flagged).
func Classify(correct, signalled bool) Outcome {
	switch {
	case correct && !signalled:
		return OutcomeMasked
	case correct && signalled:
		return OutcomeCorrected
	case !correct && signalled:
		return OutcomeDetected
	default:
		return OutcomeSDC
	}
}

// IndexedTrial runs injection trial i. The index is the trial's identity:
// implementations must derive all randomness (fault times, bit positions,
// workload) from it, so a campaign's outcome set is independent of worker
// count and schedule.
type IndexedTrial func(i int) (correct, signalled bool, err error)

// RunCampaign executes n independent trials across a worker pool
// (workers <= 0 defaults to GOMAXPROCS) and tallies the outcomes. Trials
// are claimed with work stealing — injection trials have wildly uneven
// cost (retry storms, early bucket trips), so static sharding would stall
// on the unlucky shard. The tally is the same for every worker count. The
// first trial error aborts the campaign.
func RunCampaign(n, workers int, trial IndexedTrial) (Tally, error) {
	var tally Tally
	if n < 0 {
		return tally, fmt.Errorf("fault: campaign size %d negative", n)
	}
	if trial == nil {
		return tally, fmt.Errorf("fault: campaign trial must not be nil")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Per-worker tallies need no locking: the pool runs each worker index
	// on exactly one goroutine.
	locals := make([]Tally, workers)
	err := pool.Run(n, workers, func(worker, i int) error {
		correct, signalled, err := trial(i)
		if err != nil {
			return err
		}
		locals[worker].Add(Classify(correct, signalled))
		return nil
	})
	if err != nil {
		return Tally{}, fmt.Errorf("fault: %w", err)
	}
	for _, local := range locals {
		tally.Merge(local)
	}
	return tally, nil
}
