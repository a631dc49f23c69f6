package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// This file generalises the DCNN from "the first convolution layer" (the
// paper's implementation) to an arbitrary prefix of the network — the
// Section V future-work question of "under what conditions subsequent layers
// of the CNN can be harnessed". ExecuteLayers runs a range of layers
// through the reliable engine: convolutions and dense layers via the
// overloaded multiply/accumulate protocol, activations and pooling via
// redundant comparisons, LRN via protected sums and products.

// ExecuteLayers reliably executes layers [from, to) of net on x and returns
// the intermediate activation: from 0 it is the generalised DCNN prefix; the
// hybrid enters at 1 to continue past the conv1 it already executed. Dropout layers are the identity (inference semantics). The
// engine accumulates work statistics and bucket state across the whole
// range.
func ExecuteLayers(e *reliable.Engine, net *nn.Sequential, from, to int, x *tensor.Tensor) (*tensor.Tensor, error) {
	if e == nil || net == nil {
		return nil, fmt.Errorf("core: reliable execution needs an engine and a network")
	}
	if from < 0 || to < from || to > net.Len() {
		return nil, fmt.Errorf("core: reliable layer range [%d,%d) out of [0,%d]", from, to, net.Len())
	}
	for i := from; i < to; i++ {
		layer, err := net.Layer(i)
		if err != nil {
			return nil, err
		}
		if x, err = executeLayer(e, layer, x); err != nil {
			return nil, fmt.Errorf("core: reliable layer %d (%s): %w", i, layer.Name(), err)
		}
	}
	return x, nil
}

func executeLayer(e *reliable.Engine, layer nn.Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	switch l := layer.(type) {
	case *nn.Conv2D:
		return reliable.Conv2D(e, x, l.Weight(), l.Bias().Data(),
			reliable.ConvSpec{Stride: l.Stride(), Pad: l.Pad()})
	case *nn.Dense:
		return reliable.Dense(e, x, l.Weight(), l.Bias().Data())
	case *nn.ReLU:
		return reliable.ReLU(e, x)
	case *nn.MaxPool2D:
		return reliable.MaxPool2D(e, x, l.Kernel(), l.Stride())
	case *nn.LRN:
		k, alpha, beta := l.Constants()
		return reliable.LRN(e, x, l.Window(), k, alpha, beta)
	case *nn.Flatten:
		return x.Reshape(x.Len())
	case *nn.Dropout:
		return x, nil // inference: identity
	default:
		return nil, fmt.Errorf("core: no reliable executor for layer type %T", layer)
	}
}

// PrefixCost estimates the overloaded-operation count of reliably executing
// layers [0, depth) of net on an input of the given CHW shape, without
// running anything — the planning input for the partition trade-off the
// paper's conclusion frames as "prima facie an optimization problem":
// balancing the qualifier's complexity against the reliably executed portion
// of the CNN.
func PrefixCost(net *nn.Sequential, depth int, inputShape []int) (ops uint64, err error) {
	if net == nil {
		return 0, fmt.Errorf("core: prefix cost needs a network")
	}
	if depth < 0 || depth > net.Len() {
		return 0, fmt.Errorf("core: prefix depth %d out of [0,%d]", depth, net.Len())
	}
	shape := append([]int(nil), inputShape...)
	elems := func() uint64 {
		n := uint64(1)
		for _, d := range shape {
			n *= uint64(d)
		}
		return n
	}
	for i := 0; i < depth; i++ {
		layer, lerr := net.Layer(i)
		if lerr != nil {
			return 0, lerr
		}
		switch l := layer.(type) {
		case *nn.Conv2D:
			if len(shape) != 3 {
				return 0, fmt.Errorf("core: layer %d (conv) needs CHW input, tracking %v", i, shape)
			}
			outH := (shape[1]+2*l.Pad()-l.Kernel())/l.Stride() + 1
			outW := (shape[2]+2*l.Pad()-l.Kernel())/l.Stride() + 1
			if outH < 1 || outW < 1 {
				return 0, fmt.Errorf("core: layer %d (conv) does not fit input %v", i, shape)
			}
			macs := uint64(l.Filters()) * uint64(outH) * uint64(outW) *
				uint64(l.InChannels()) * uint64(l.Kernel()) * uint64(l.Kernel())
			ops += 2 * macs
			shape = []int{l.Filters(), outH, outW}
		case *nn.Dense:
			ops += 2 * uint64(l.Out()) * uint64(l.In())
			shape = []int{l.Out()}
		case *nn.ReLU:
			ops += elems() // one redundant comparison per element
		case *nn.MaxPool2D:
			if len(shape) != 3 {
				return 0, fmt.Errorf("core: layer %d (pool) needs CHW input, tracking %v", i, shape)
			}
			outH := (shape[1]-l.Kernel())/l.Stride() + 1
			outW := (shape[2]-l.Kernel())/l.Stride() + 1
			if outH < 1 || outW < 1 {
				return 0, fmt.Errorf("core: layer %d (pool) does not fit input %v", i, shape)
			}
			ops += uint64(shape[0]) * uint64(outH) * uint64(outW) *
				uint64(l.Kernel()) * uint64(l.Kernel())
			shape = []int{shape[0], outH, outW}
		case *nn.LRN:
			// One square per element, ≤ window sums per element, one scale.
			ops += elems() * uint64(2+l.Window())
		case *nn.Flatten:
			shape = []int{int(elems())}
		case *nn.Dropout:
			// identity at inference
		default:
			return 0, fmt.Errorf("core: no cost model for layer type %T", layer)
		}
	}
	return ops, nil
}
