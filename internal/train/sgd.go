// Package train provides the SGD trainer, per-filter freeze policies and the
// evaluation metrics (accuracy, confusion matrix, per-class confidence) used
// to reproduce the paper's training-side experiments: Sobel filter
// replacement (Figure 4), Sobel pre-initialisation with frozen training, and
// the TensorFlow freezing artefact where "after every epoch or batch, the
// filter values are minimally changed".
package train

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and optional
// L2 weight decay. Velocity is created on a parameter's first step and keyed
// by its *nn.Param, which the layer owns for its lifetime.
type SGD struct {
	lr       float32
	momentum float32
	decay    float32
	velocity map[*nn.Param]*tensor.Tensor
}

// NewSGD returns an optimiser. lr must be positive; momentum and decay must
// be in [0, 1).
func NewSGD(lr, momentum, decay float32) (*SGD, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("train: learning rate %v must be positive", lr)
	}
	if momentum < 0 || momentum >= 1 {
		return nil, fmt.Errorf("train: momentum %v out of [0,1)", momentum)
	}
	if decay < 0 || decay >= 1 {
		return nil, fmt.Errorf("train: weight decay %v out of [0,1)", decay)
	}
	return &SGD{
		lr: lr, momentum: momentum, decay: decay,
		velocity: make(map[*nn.Param]*tensor.Tensor),
	}, nil
}

// LR returns the current learning rate.
func (o *SGD) LR() float32 { return o.lr }

// Step applies one update to every parameter from its accumulated gradient,
// scaled by 1/batchSize; a parameter whose Grad is nil (no backward pass has
// reached it) has a zero gradient, so only decay and momentum move it.
// Gradients are NOT cleared (call net.ZeroGrads).
func (o *SGD) Step(params []*nn.Param, batchSize int) error {
	if batchSize < 1 {
		return fmt.Errorf("train: batch size %d must be >= 1", batchSize)
	}
	inv := 1 / float32(batchSize)
	for _, p := range params {
		v, ok := o.velocity[p]
		if !ok {
			v = tensor.MustNew(p.Value.Shape()...)
			o.velocity[p] = v
		}
		var g []float32
		if p.Grad != nil {
			g = p.Grad.Data()
		}
		w := p.Value.Data()
		vd := v.Data()
		for i := range w {
			grad := o.decay * w[i]
			if g != nil {
				grad += g[i] * inv
			}
			vd[i] = o.momentum*vd[i] - o.lr*grad
			w[i] += vd[i]
		}
	}
	return nil
}
