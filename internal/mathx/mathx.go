// Package mathx collects the small numerical routines shared across the
// repository: numerically stable softmax, running statistics, quantiles and
// tolerant float comparison. Everything is allocation-conscious and
// deterministic.
package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Softmax writes the softmax of src into dst (which may alias src). It is
// numerically stable (max-subtraction) and returns an error if the lengths
// differ or src is empty.
func Softmax(dst, src []float32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("mathx: softmax length mismatch %d != %d", len(dst), len(src))
	}
	if len(src) == 0 {
		return fmt.Errorf("mathx: softmax of empty slice")
	}
	m := src[0]
	for _, x := range src[1:] {
		if x > m {
			m = x
		}
	}
	var sum float64
	for i, x := range src {
		e := math.Exp(float64(x - m))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
	return nil
}

// InvPow returns d^-β in float32, the local-response-normalisation scale
// nn.LRN's forward and backward share so that they agree bit for bit (the
// AVX2 inference kernel in internal/nn performs the same operations lane by
// lane). β = 0.75 — AlexNet's constant — is 1/(√d·√√d): two correctly
// rounded float32 square roots, a product and a division, identical on
// every platform and within a few ulp of the exact power; any other β
// rounds math.Pow's float64 result once.
func InvPow(d float32, beta float64) float32 {
	if beta == 0.75 {
		s := float32(math.Sqrt(float64(d)))
		return 1 / (s * float32(math.Sqrt(float64(s))))
	}
	return float32(math.Pow(float64(d), -beta))
}

// Welford accumulates mean and variance in a single numerically stable pass.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the running statistics.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean returns the running mean (0 before any sample).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts internally.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("mathx: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("mathx: quantile q=%v out of [0,1]", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// MeanStd returns the mean and population standard deviation of xs
// (both 0 for an empty slice).
func MeanStd(xs []float64) (mean, std float64) {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Mean(), w.Std()
}

// NormalQuantile returns the q-quantile of the standard normal distribution
// (the probit function), using the Acklam rational approximation, which is
// accurate to about 1.15e-9 over (0,1). It is used to derive SAX breakpoints
// for arbitrary alphabet sizes.
func NormalQuantile(q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("mathx: normal quantile q=%v out of (0,1)", q)
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case q < pLow:
		u := math.Sqrt(-2 * math.Log(q))
		x = (((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	case q <= 1-pLow:
		u := q - 0.5
		r := u * u
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * u /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		u := math.Sqrt(-2 * math.Log(1-q))
		x = -(((((c[0]*u+c[1])*u+c[2])*u+c[3])*u+c[4])*u + c[5]) /
			((((d[0]*u+d[1])*u+d[2])*u+d[3])*u + 1)
	}
	return x, nil
}
