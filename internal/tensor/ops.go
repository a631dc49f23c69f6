package tensor

import (
	"fmt"
	"math"
)

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float32) float32) {
	for i, x := range t.data {
		t.data[i] = f(x)
	}
}

// Map returns a new tensor whose elements are f applied to t's elements.
func (t *Tensor) Map(f func(float32) float32) *Tensor {
	c := t.Clone()
	c.Apply(f)
	return c
}

// SubInPlace subtracts o element-wise from t.
func (t *Tensor) SubInPlace(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("tensor: sub shape mismatch %v != %v", t.shape, o.shape)
	}
	for i, x := range o.data {
		t.data[i] -= x
	}
	return nil
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Sum returns the sum of all elements, accumulated in float64 for stability.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, x := range t.data {
		s += float64(x)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Min returns the smallest element (+Inf for empty tensors).
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, x := range t.data {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element (-Inf for empty tensors).
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, x := range t.data {
		if x > m {
			m = x
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, x := range t.data {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of the flattened tensors, accumulated in
// float64.
func (t *Tensor) Dot(o *Tensor) (float64, error) {
	if len(t.data) != len(o.data) {
		return 0, fmt.Errorf("tensor: dot length mismatch %d != %d", len(t.data), len(o.data))
	}
	var s float64
	for i, x := range t.data {
		s += float64(x) * float64(o.data[i])
	}
	return s, nil
}

// Equal reports exact element-wise equality (and shape equality).
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, x := range t.data {
		if o.data[i] != x {
			return false
		}
	}
	return true
}

// AllClose reports whether every element of t is within atol of the
// corresponding element of o. Shapes must match.
func (t *Tensor) AllClose(o *Tensor, atol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, x := range t.data {
		if math.Abs(float64(x)-float64(o.data[i])) > atol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between t
// and o, or an error on shape mismatch.
func (t *Tensor) MaxAbsDiff(o *Tensor) (float64, error) {
	if !t.SameShape(o) {
		return 0, fmt.Errorf("tensor: diff shape mismatch %v != %v", t.shape, o.shape)
	}
	var m float64
	for i, x := range t.data {
		d := math.Abs(float64(x) - float64(o.data[i]))
		if d > m {
			m = d
		}
	}
	return m, nil
}
