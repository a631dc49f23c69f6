package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// This file implements Section III-B's data-set integration workflow: the
// replacement or pre-initialisation of first-layer CNN filters with Sobel
// kernels, so that "any data used to train or otherwise modify the model
// weights for reliability purposes should benefit the other segments of the
// model".

// MakeSobelFilter assembles a (channels, k, k) filter from per-channel 2-D
// kernels.
func MakeSobelFilter(kernels ...*tensor.Tensor) (*tensor.Tensor, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("core: sobel filter needs at least one channel kernel")
	}
	k := kernels[0].Dim(0)
	for i, kn := range kernels {
		if kn.Rank() != 2 || kn.Dim(0) != k || kn.Dim(1) != k {
			return nil, fmt.Errorf("core: channel kernel %d has shape %v, want (%d,%d)",
				i, kn.Shape(), k, k)
		}
	}
	out, err := tensor.New(len(kernels), k, k)
	if err != nil {
		return nil, err
	}
	for c, kn := range kernels {
		ch, err := out.Channel(c)
		if err != nil {
			return nil, err
		}
		if err := ch.CopyFrom(kn); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PaperSobelFilter builds the paper's exact replacement filter: "we naively
// replace the first of the filters with a Sobel-x, Sobel-y, Sobel-x filter"
// — channel 0 Sobel-x, channel 1 Sobel-y, channel 2 Sobel-x, extended to the
// layer's k×k kernel size.
func PaperSobelFilter(k int) (*tensor.Tensor, error) {
	sx, err := shape.SobelX(k)
	if err != nil {
		return nil, err
	}
	sy, err := shape.SobelY(k)
	if err != nil {
		return nil, err
	}
	return MakeSobelFilter(sx, sy, sx)
}

// UniformSobelX builds a filter whose every channel is the Sobel-x kernel
// scaled by 1/channels, so the filter output is the Sobel-x response of the
// channel-mean (≈ luminance) image. Together with UniformSobelY it gives the
// qualifier an orientation-complete edge pair.
func UniformSobelX(k, channels int) (*tensor.Tensor, error) {
	return uniformSobel(k, channels, shape.SobelX)
}

// UniformSobelY is UniformSobelX for the vertical gradient.
func UniformSobelY(k, channels int) (*tensor.Tensor, error) {
	return uniformSobel(k, channels, shape.SobelY)
}

func uniformSobel(k, channels int, gen func(int) (*tensor.Tensor, error)) (*tensor.Tensor, error) {
	if channels < 1 {
		return nil, fmt.Errorf("core: sobel filter needs >= 1 channel, got %d", channels)
	}
	kn, err := gen(k)
	if err != nil {
		return nil, err
	}
	kn.Scale(1 / float32(channels))
	kernels := make([]*tensor.Tensor, channels)
	for i := range kernels {
		kernels[i] = kn
	}
	return MakeSobelFilter(kernels...)
}

// ReplaceFilter overwrites filter idx of conv with the given (C, k, k)
// filter and zeroes its bias — the Figure 4 sweep operation. It returns the
// previous filter values so the caller can restore them.
func ReplaceFilter(conv *nn.Conv2D, idx int, filter *tensor.Tensor) (previous *tensor.Tensor, prevBias float32, err error) {
	if conv == nil {
		return nil, 0, fmt.Errorf("core: replace filter needs a conv layer")
	}
	view, err := conv.Weight().Filter(idx)
	if err != nil {
		return nil, 0, err
	}
	if !view.SameShape(filter) {
		return nil, 0, fmt.Errorf("core: filter shape %v does not match conv filter shape %v",
			filter.Shape(), view.Shape())
	}
	previous = view.Clone()
	prevBias = conv.Bias().Data()[idx]
	if err := view.CopyFrom(filter); err != nil {
		return nil, 0, err
	}
	conv.Bias().Data()[idx] = 0
	return previous, prevBias, nil
}

// RestoreFilter undoes a ReplaceFilter.
func RestoreFilter(conv *nn.Conv2D, idx int, previous *tensor.Tensor, prevBias float32) error {
	if conv == nil {
		return fmt.Errorf("core: restore filter needs a conv layer")
	}
	view, err := conv.Weight().Filter(idx)
	if err != nil {
		return err
	}
	if err := view.CopyFrom(previous); err != nil {
		return err
	}
	conv.Bias().Data()[idx] = prevBias
	return nil
}

// SobelPair records where the orientation-complete Sobel pair lives in the
// first convolution layer.
type SobelPair struct {
	XIdx, YIdx int
}

// InstallSobelPair pre-initialises filters xIdx and yIdx of conv to the
// uniform Sobel-x and Sobel-y kernels (biases zeroed) and returns the pair
// descriptor. This is the pre-initialisation step of Section III-B; keep the
// filters fixed during training with train.FilterFreeze.
func InstallSobelPair(conv *nn.Conv2D, xIdx, yIdx int) (SobelPair, error) {
	if conv == nil {
		return SobelPair{}, fmt.Errorf("core: install needs a conv layer")
	}
	if xIdx == yIdx {
		return SobelPair{}, fmt.Errorf("core: sobel pair indices must differ, both %d", xIdx)
	}
	fx, err := UniformSobelX(conv.Kernel(), conv.InChannels())
	if err != nil {
		return SobelPair{}, err
	}
	fy, err := UniformSobelY(conv.Kernel(), conv.InChannels())
	if err != nil {
		return SobelPair{}, err
	}
	if _, _, err := ReplaceFilter(conv, xIdx, fx); err != nil {
		return SobelPair{}, err
	}
	if _, _, err := ReplaceFilter(conv, yIdx, fy); err != nil {
		return SobelPair{}, err
	}
	return SobelPair{XIdx: xIdx, YIdx: yIdx}, nil
}

// EdgeMagnitudeFromChannels combines the Sobel pair's output channels of a
// CHW feature map into an edge-magnitude map, reading both planes in place.
func EdgeMagnitudeFromChannels(features *tensor.Tensor, pair SobelPair) (*tensor.Tensor, error) {
	return edgeMagnitude(nil, features, pair)
}

// edgeMagnitude is EdgeMagnitudeFromChannels writing into dst when dst is a
// map of the right shape, and into a new tensor otherwise.
func edgeMagnitude(dst, features *tensor.Tensor, pair SobelPair) (*tensor.Tensor, error) {
	if features.Rank() != 3 {
		return nil, fmt.Errorf("core: edge magnitude needs CHW features, got %v", features.Shape())
	}
	c, h, w := features.Dim(0), features.Dim(1), features.Dim(2)
	for _, idx := range []int{pair.XIdx, pair.YIdx} {
		if idx < 0 || idx >= c {
			return nil, fmt.Errorf("core: edge magnitude channel %d out of range [0,%d)", idx, c)
		}
	}
	data := features.Data()
	gx, gy := data[pair.XIdx*h*w:(pair.XIdx+1)*h*w], data[pair.YIdx*h*w:(pair.YIdx+1)*h*w]
	if dst == nil || dst.Rank() != 2 || dst.Dim(0) != h || dst.Dim(1) != w {
		dst = tensor.MustNew(h, w)
	}
	od := dst.Data()
	for i := range od {
		od[i] = float32(math.Hypot(float64(gx[i]), float64(gy[i])))
	}
	return dst, nil
}
