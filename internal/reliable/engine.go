package reliable

import (
	"errors"
	"fmt"

	"repro/internal/fault"
)

// ErrBucketTripped is returned when the leaky-bucket error counter reaches
// its ceiling: errors are persistent and the execution is declared failed.
// Per the paper, "only persistent failures are explicitly reported".
var ErrBucketTripped = errors.New("reliable: error counter reached ceiling, execution failed")

// Stats counts the work performed by an Engine. Attempt counts include
// re-executions, so Ops − (OKs of the bucket) is the wasted work.
type Stats struct {
	// Ops is the number of operation attempts (each retry counts again).
	Ops uint64
	// Failed is the number of attempts whose qualifier was false.
	Failed uint64
	// Retries is the number of rollback/re-execution events (always
	// ≤ Failed; the final failed attempt before a bucket trip does not
	// retry).
	Retries uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Ops += other.Ops
	s.Failed += other.Failed
	s.Retries += other.Retries
}

// Sub removes other from s — the delta step for per-inference counters
// read off a long-lived (per-worker) engine.
func (s *Stats) Sub(other Stats) {
	s.Ops -= other.Ops
	s.Failed -= other.Failed
	s.Retries -= other.Retries
}

// Engine executes overloaded operations under the Algorithm 3 protocol:
// every operation is assumed to have failed unless its qualifier asserts
// otherwise; a failed operation raises the leaky bucket by its factor and —
// if the bucket has not tripped — is retried (the rollback distance is one
// operation); a correct operation drains the bucket by one.
//
// Conv2D on a DMR engine over fault-free ALUs detects per output row and
// replays per operation, and only on disagreement: the row runs twice and is
// compared once, and only a row whose copies differ goes through Mul/Add.
// The counters and the bucket end where the per-operation protocol would
// have left them.
//
// Engine is not safe for concurrent use. The system-wide idiom is
// per-worker engines: the pooled classifier (internal/core) builds one
// engine per pool worker and resets its leaky bucket between inferences so
// each classification keeps the per-execution error-counter semantics.
type Engine struct {
	ops    Ops
	bucket *LeakyBucket
	stats  Stats
	// rows selects Conv2D's row-granular path; twin is its second copy of
	// an output row. spans and masks hold the last convolution's column
	// spans and SIMD lane masks, so a long-lived engine's row path
	// allocates nothing per call.
	rows  bool
	twin  []float32
	spans []colSpan
	masks []int32
}

// NewEngine returns an engine executing via ops and accounting errors in
// bucket. A nil bucket gets the paper's default (factor 2, ceiling 3).
func NewEngine(ops Ops, bucket *LeakyBucket) (*Engine, error) {
	if ops == nil {
		return nil, fmt.Errorf("reliable: engine needs ops")
	}
	if bucket == nil {
		bucket = NewDefaultBucket()
	}
	return &Engine{ops: ops, bucket: bucket, rows: rowGranular(ops)}, nil
}

// rowGranular reports whether Conv2D may detect per row on ops: DMR whose
// two PEs are both fault-free — temporal DMR over one fault.Ideal is the
// same ALU twice. On those a row's two executions can only differ where the
// per-operation comparison would have failed too (a NaN), so the row path
// changes no outcome. Every other operator set — plain, TMR, soft-float
// or any injecting ALU — keeps per-operation execution, so
// fault.ALU's injection model sees every operation.
func rowGranular(ops Ops) bool {
	d, ok := ops.(*DMR)
	if !ok {
		return false
	}
	_, a := d.a.(fault.Ideal)
	_, b := d.b.(fault.Ideal)
	return a && b
}

// opKind names the operation the retry loop executes.
type opKind uint8

const (
	opMul opKind = iota
	opAdd
)

// Mul executes a reliable multiplication (retry + bucket protocol).
func (e *Engine) Mul(a, b float32) (float32, error) { return e.exec(opMul, a, b) }

// Add executes a reliable addition (retry + bucket protocol).
func (e *Engine) Add(a, b float32) (float32, error) { return e.exec(opAdd, a, b) }

// exec is the retry loop of Algorithm 3 for one operation. The operation is
// a value, not a closure or method value, so the loop allocates nothing; it
// is the innermost statement of the per-operation path (injecting ALUs, the
// replay of a disagreeing row, Table 1), which Conv2D's row path keeps off
// the fault-free serving path.
//
// The trip message counts attempts from the bucket's own per-execution
// counters, not from the engine's Stats: callers reset the bucket before
// every execution but let a pooled engine's Stats accumulate, and the same
// failure must read the same whichever engine served it.
func (e *Engine) exec(op opKind, a, b float32) (float32, error) {
	for {
		var v float32
		var ok bool
		if op == opMul {
			v, ok = e.ops.Mul(a, b)
		} else {
			v, ok = e.ops.Add(a, b)
		}
		e.stats.Ops++
		if ok {
			e.bucket.OK()
			return v, nil
		}
		e.stats.Failed++
		if e.bucket.Fail() {
			return 0, fmt.Errorf("after %d attempts (%d failed): %w",
				e.bucket.Errors()+e.bucket.OKs(), e.bucket.Errors(), ErrBucketTripped)
		}
		e.stats.Retries++
	}
}

// MAC executes acc + a*b as two reliable operations, the inner step of the
// convolution kernel of Algorithm 3.
func (e *Engine) MAC(acc, a, b float32) (float32, error) {
	p, err := e.Mul(a, b)
	if err != nil {
		return 0, err
	}
	return e.Add(acc, p)
}

// Stats returns the accumulated work counters.
func (e *Engine) Stats() Stats { return e.stats }

// Bucket returns the engine's error counter (shared, live view).
func (e *Engine) Bucket() *LeakyBucket { return e.bucket }
