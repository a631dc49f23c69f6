package fault

import (
	"fmt"
	"math/rand"
)

// ALU is the arithmetic abstraction the reliable operators execute on. The
// paper's Algorithms 1–3 overload multiplication and addition; here the
// overloading point is the ALU implementation. An ALU corresponds to one
// processing element (PE) of a compute unit in the paper's (OpenCL)
// terminology.
type ALU interface {
	Mul(a, b float32) float32
	Add(a, b float32) float32
}

// Ideal is a fault-free ALU. The zero value is ready to use.
type Ideal struct{}

var _ ALU = Ideal{}

// Mul returns a*b.
func (Ideal) Mul(a, b float32) float32 { return a * b }

// Add returns a+b.
func (Ideal) Add(a, b float32) float32 { return a + b }

// Transient is an ALU whose results suffer independent, transient
// corruptions (SEUs): each operation's output is corrupted with probability
// Rate, and repeated executions of the same operation fail independently —
// the fault does not persist. This is the model under which temporal
// redundancy (execute twice, compare) is effective.
type Transient struct {
	rate  float64
	model Model
	rng   *rand.Rand
	ops   uint64 // number of operations executed
}

var _ ALU = (*Transient)(nil)

// NewTransient returns a transient-fault ALU corrupting each operation's
// result with probability rate using model. rng must not be shared with
// other concurrent users.
func NewTransient(rate float64, model Model, rng *rand.Rand) (*Transient, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("fault: transient rate %v out of [0,1]", rate)
	}
	if model == nil {
		return nil, fmt.Errorf("fault: transient model must not be nil")
	}
	if rng == nil {
		return nil, fmt.Errorf("fault: transient rng must not be nil")
	}
	return &Transient{rate: rate, model: model, rng: rng}, nil
}

func (t *Transient) apply(x float32) float32 {
	t.ops++
	if t.rng.Float64() < t.rate {
		return CorruptFloat(t.model, x, t.rng)
	}
	return x
}

// Mul returns a*b, possibly corrupted.
func (t *Transient) Mul(a, b float32) float32 { return t.apply(a * b) }

// Add returns a+b, possibly corrupted.
func (t *Transient) Add(a, b float32) float32 { return t.apply(a + b) }

// Ops returns the number of operations executed so far.
func (t *Transient) Ops() uint64 { return t.ops }

// Permanent is an ALU with a persistent defect: every result passes through
// the corruption model (typically StuckAt). Because the defect is a function
// of the operands only, re-executing an operation on the same ALU yields the
// same wrong answer — exactly the failure mode that defeats temporal
// redundancy and motivates spatial redundancy (Section II-B of the paper).
type Permanent struct {
	model Model
	ops   uint64
}

var _ ALU = (*Permanent)(nil)

// NewPermanent returns an ALU whose every result is passed through model.
// The model must be deterministic (its rng is never used).
func NewPermanent(model Model) (*Permanent, error) {
	if model == nil {
		return nil, fmt.Errorf("fault: permanent model must not be nil")
	}
	return &Permanent{model: model}, nil
}

func (p *Permanent) apply(x float32) float32 {
	p.ops++
	return CorruptFloat(p.model, x, nil)
}

// Mul returns the corrupted product.
func (p *Permanent) Mul(a, b float32) float32 { return p.apply(a * b) }

// Add returns the corrupted sum.
func (p *Permanent) Add(a, b float32) float32 { return p.apply(a + b) }

// Ops returns the number of operations executed so far.
func (p *Permanent) Ops() uint64 { return p.ops }

// OnceAfter is an ALU that executes exactly one corruption after skip
// fault-free operations, then behaves ideally again. It is the precision
// instrument used by targeted injection tests ("corrupt exactly the k-th
// multiply of this convolution") and by the rollback-distance ablation.
type OnceAfter struct {
	model Model
	rng   *rand.Rand
	skip  uint64
	ops   uint64
	fired bool
}

var _ ALU = (*OnceAfter)(nil)

// NewOnceAfter returns an ALU that corrupts the (skip+1)-th operation.
func NewOnceAfter(skip uint64, model Model, rng *rand.Rand) (*OnceAfter, error) {
	if model == nil {
		return nil, fmt.Errorf("fault: onceafter model must not be nil")
	}
	return &OnceAfter{model: model, rng: rng, skip: skip}, nil
}

func (o *OnceAfter) apply(x float32) float32 {
	o.ops++
	if !o.fired && o.ops > o.skip {
		o.fired = true
		return CorruptFloat(o.model, x, o.rng)
	}
	return x
}

// Mul returns a*b, corrupted exactly once at the programmed position.
func (o *OnceAfter) Mul(a, b float32) float32 { return o.apply(a * b) }

// Add returns a+b, corrupted exactly once at the programmed position.
func (o *OnceAfter) Add(a, b float32) float32 { return o.apply(a + b) }

// Fired reports whether the single programmed corruption has been applied.
func (o *OnceAfter) Fired() bool { return o.fired }

// Ops returns the number of operations executed so far.
func (o *OnceAfter) Ops() uint64 { return o.ops }
