// Package shape implements the deterministic qualifier substrate of the
// hybrid CNN: Sobel kernels, binary segmentation on bit-packed masks (one
// bit per pixel, 64 pixels a word), contour tracing, the centroid-to-edge
// radial time series of Figure 3, and SAX-template shape classification.
// The qualifier has one entry point, Qualifier.QualifyEdgeMap, which reads
// the Figure 2 edge map of conv1's reliably executed Sobel channels. Every
// routine is a bounded surrogate function in the paper's sense — its output
// range can be determined a priori, "producing deterministic results that
// are fully explainable, for instance during a safety certification
// process".
package shape

import (
	"fmt"

	"repro/internal/tensor"
)

// binomialRow returns the n-tap binomial smoothing vector (Pascal row),
// the building block of extended Sobel kernels.
func binomialRow(n int) []float64 {
	row := make([]float64, n)
	row[0] = 1
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			row[j] += row[j-1]
		}
	}
	return row
}

// derivativeRow returns the n-tap central-difference derivative vector
// obtained by convolving the 2-tap derivative [-1, +1] with a binomial
// smoother, the standard construction of extended Sobel operators.
func derivativeRow(n int) []float64 {
	if n == 2 {
		return []float64{-1, 1}
	}
	base := derivativeRow(n - 1)
	out := make([]float64, n)
	for i, v := range base {
		out[i] += v
		out[i+1] += v
	}
	return out
}

// SobelX returns an n×n extended Sobel-x kernel (n odd, n ≥ 3): the outer
// product of an n-tap binomial smoother (columns) and an n-tap derivative
// (rows). SobelX(3) equals the classic kernel up to scale; kernels are
// normalised so the sum of positive entries is +2, matching the classic
// kernel's gain, which keeps the response magnitude comparable across sizes.
//
// The paper replaces 11×11 AlexNet filters with "a Sobel filter"; this
// constructor produces that 11×11 (or any odd-size) instantiation.
func SobelX(n int) (*tensor.Tensor, error) {
	if n < 3 || n%2 == 0 {
		return nil, fmt.Errorf("shape: Sobel size %d must be odd and >= 3", n)
	}
	smooth := binomialRow(n)
	deriv := derivativeRow(n)
	k := tensor.MustNew(n, n)
	var posSum float64
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := smooth[y] * deriv[x]
			k.Set(float32(v), y, x)
			if v > 0 {
				posSum += v
			}
		}
	}
	if posSum > 0 {
		k.Scale(float32(2 / posSum))
	}
	return k, nil
}

// SobelY returns the n×n extended Sobel-y kernel (the transpose of SobelX).
func SobelY(n int) (*tensor.Tensor, error) {
	kx, err := SobelX(n)
	if err != nil {
		return nil, err
	}
	ky := tensor.MustNew(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			ky.Set(kx.At(x, y), y, x)
		}
	}
	return ky, nil
}
