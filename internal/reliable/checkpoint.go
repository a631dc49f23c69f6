package reliable

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// This file implements the coarse-granularity checkpoint/rollback executor
// used by the rollback-distance ablation (Section II-E: "Once there are hard
// or soft deadlines to be met, the rollback-distance becomes a significant
// consideration"). The paper's contribution reduces the rollback distance to
// ONE OPERATION (Engine + Conv2D); the executor here is the classical
// comparison point, unit-level checkpointing: execute a unit of work twice,
// compare the outputs at the checkpoint, and re-execute the WHOLE unit on
// mismatch ("unit" = one layer, or the whole network). The ablation's other
// baseline, no checkpointing at all, is one run on a plain engine.

// ErrRollbackExhausted is returned when a checkpointed unit keeps
// mismatching for the configured number of attempts — the repetitive-error
// case in which, as Section II-B notes, "there are few mechanisms available
// to halt rollback and re-execution" other than giving up.
var ErrRollbackExhausted = errors.New("reliable: rollback attempts exhausted")

// UnitResult reports the outcome of a checkpointed unit execution.
type UnitResult struct {
	// Output is the agreed result (nil if the executor gave up).
	Output *tensor.Tensor
	// Attempts is the number of duplicated executions performed (1 attempt
	// = 2 executions of the unit).
	Attempts int
	// Rollbacks is Attempts − 1.
	Rollbacks int
	// OpsExecuted estimates the scalar operations spent, including all
	// re-execution: attempts × 2 × opsPerUnit.
	OpsExecuted uint64
}

// Unit is a deterministic unit of work (e.g. one convolution layer executed
// on a possibly faulty ALU). Each call must recompute from the same inputs;
// nondeterminism must come only from injected faults.
type Unit func() (*tensor.Tensor, error)

// CheckpointedRun executes unit twice per attempt and compares the two
// outputs element-wise (the checkpoint). On mismatch it rolls back and
// re-executes the whole unit, up to maxAttempts. opsPerUnit is the caller's
// estimate of scalar work per single execution, used for the work accounting
// the ablation reports.
func CheckpointedRun(unit Unit, maxAttempts int, opsPerUnit uint64) (UnitResult, error) {
	var res UnitResult
	if unit == nil {
		return res, fmt.Errorf("reliable: checkpointed run needs a unit")
	}
	if maxAttempts < 1 {
		return res, fmt.Errorf("reliable: maxAttempts %d must be >= 1", maxAttempts)
	}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res.Attempts = attempt
		res.Rollbacks = attempt - 1
		res.OpsExecuted += 2 * opsPerUnit

		a, err := unit()
		if err != nil {
			return res, fmt.Errorf("reliable: unit execution 1 of attempt %d: %w", attempt, err)
		}
		b, err := unit()
		if err != nil {
			return res, fmt.Errorf("reliable: unit execution 2 of attempt %d: %w", attempt, err)
		}
		if a.Equal(b) {
			res.Output = a
			return res, nil
		}
	}
	return res, fmt.Errorf("reliable: after %d attempts: %w", res.Attempts, ErrRollbackExhausted)
}
