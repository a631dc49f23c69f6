package train

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// FreezeMode reproduces the paper's three filter-freezing regimes for a
// pre-initialised (Sobel) filter in the first convolution layer.
type FreezeMode int

const (
	// FreezeNone lets the filter train freely.
	FreezeNone FreezeMode = iota + 1
	// FreezeHard pins the filter exactly: its gradient is zeroed before
	// every optimiser step, so the values never move.
	FreezeHard
	// FreezeDrift reproduces the TensorFlow behaviour the paper observed:
	// the freeze is imperfect, and "after every epoch or batch, the filter
	// values are minimally changed, apparently to reflect the numeric
	// balance of values presented to the pooling layer". Gradients are
	// attenuated to a small fraction rather than zeroed, so the filter
	// undergoes subtle drift in intensity/statistics while remaining
	// recognisably the initialised kernel.
	FreezeDrift
	// FreezeResetEpoch trains the filter freely within an epoch but
	// resets it to the pre-initialised values at every epoch end — the
	// paper's "set before training ... and re-set after every epoch or
	// batch" workflow.
	FreezeResetEpoch
)

// String implements fmt.Stringer.
func (m FreezeMode) String() string {
	switch m {
	case FreezeNone:
		return "none"
	case FreezeHard:
		return "hard"
	case FreezeDrift:
		return "drift"
	case FreezeResetEpoch:
		return "reset-epoch"
	default:
		return fmt.Sprintf("freeze(%d)", int(m))
	}
}

// DriftAttenuation is the gradient attenuation factor FreezeDrift applies —
// small enough that drift stays "subtle", nonzero so it is measurable.
const DriftAttenuation = 0.01

// FilterFreeze pins (a subset of) first-layer filters of a convolution
// during training.
type FilterFreeze struct {
	conv    *nn.Conv2D
	mode    FreezeMode
	indices []int
	// pinned holds the pre-initialised filter values for reset/hard modes.
	pinned map[int]*tensor.Tensor
}

// NewFilterFreeze creates a freeze policy for the given filter indices of
// conv. The current filter contents are captured as the pinned values.
func NewFilterFreeze(conv *nn.Conv2D, mode FreezeMode, indices ...int) (*FilterFreeze, error) {
	if conv == nil {
		return nil, fmt.Errorf("train: freeze needs a conv layer")
	}
	if mode < FreezeNone || mode > FreezeResetEpoch {
		return nil, fmt.Errorf("train: unknown freeze mode %d", int(mode))
	}
	f := &FilterFreeze{conv: conv, mode: mode, pinned: make(map[int]*tensor.Tensor, len(indices))}
	for _, idx := range indices {
		if idx < 0 || idx >= conv.Filters() {
			return nil, fmt.Errorf("train: freeze filter %d out of range [0,%d)", idx, conv.Filters())
		}
		view, err := conv.Weight().Filter(idx)
		if err != nil {
			return nil, err
		}
		f.pinned[idx] = view.Clone()
		f.indices = append(f.indices, idx)
	}
	return f, nil
}

// Mode returns the freeze mode.
func (f *FilterFreeze) Mode() FreezeMode { return f.mode }

// eachGrad applies fn to the gradient sub-tensor of every managed filter. A
// nil accumulator (no backward pass yet) is all zeros: there is nothing to
// clear or attenuate.
func (f *FilterFreeze) eachGrad(fn func(g *tensor.Tensor)) error {
	var weight *nn.Param
	for _, p := range f.conv.Params() {
		if p.Value == f.conv.Weight() {
			weight = p
		}
	}
	if weight == nil {
		return fmt.Errorf("train: conv weight parameter not found")
	}
	if weight.Grad == nil {
		return nil
	}
	for _, idx := range f.indices {
		g, err := weight.Grad.Filter(idx)
		if err != nil {
			return err
		}
		fn(g)
	}
	return nil
}

// BeforeStep is invoked after gradient accumulation and before the optimiser
// step; it implements the hard and drift regimes.
func (f *FilterFreeze) BeforeStep() error {
	switch f.mode {
	case FreezeHard:
		return f.eachGrad(func(g *tensor.Tensor) { g.Zero() })
	case FreezeDrift:
		return f.eachGrad(func(g *tensor.Tensor) { g.Scale(DriftAttenuation) })
	}
	return nil
}

// AfterStep is invoked after every optimiser step. For the hard regime it
// restores the pinned values exactly, so that side channels of the optimiser
// that bypass the gradient (weight decay, momentum) cannot move the filter —
// zeroing gradients alone is not enough.
func (f *FilterFreeze) AfterStep() error {
	if f.mode != FreezeHard {
		return nil
	}
	for _, idx := range f.indices {
		view, err := f.conv.Weight().Filter(idx)
		if err != nil {
			return err
		}
		if err := view.CopyFrom(f.pinned[idx]); err != nil {
			return err
		}
	}
	return nil
}

// AfterEpoch is invoked at every epoch end; it implements the reset regime.
func (f *FilterFreeze) AfterEpoch() error {
	if f.mode != FreezeResetEpoch {
		return nil
	}
	for _, idx := range f.indices {
		view, err := f.conv.Weight().Filter(idx)
		if err != nil {
			return err
		}
		if err := view.CopyFrom(f.pinned[idx]); err != nil {
			return err
		}
	}
	return nil
}

// Drift returns the L2 distance between filter idx's current values and its
// pinned initialisation — the quantity the paper inspects when noting that
// the "frozen" filter "undergoes subtle changes in the intensity,
// statistical and spatial frequency domains".
func (f *FilterFreeze) Drift(idx int) (float64, error) {
	p, ok := f.pinned[idx]
	if !ok {
		return 0, fmt.Errorf("train: filter %d not managed by this freeze", idx)
	}
	view, err := f.conv.Weight().Filter(idx)
	if err != nil {
		return 0, err
	}
	diff := view.Clone()
	if err := diff.SubInPlace(p); err != nil {
		return 0, err
	}
	return diff.L2Norm(), nil
}
