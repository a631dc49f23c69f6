// Package tensor provides the dense float32 tensor substrate used by every
// other package in this repository: the CNN framework (internal/nn), the
// reliable execution engine (internal/reliable), the synthetic dataset
// generator (internal/gtsrb) and the shape qualifier (internal/shape).
//
// Tensors are row-major ("C order"). Convolutional data uses CHW layout
// (channels, height, width) per sample and NCHW for micro-batches (Stack
// packs samples, Sample views them back out). The batched kernels —
// ConvGemmAcc and Linear — run a whole micro-batch as a single blocked GEMM
// per convolution or dense layer; the per-sample entry points are their
// N=1 cases.
//
// The package is deliberately free of global state: all random fills take an
// explicit *rand.Rand so that every experiment in the repository is
// reproducible from a seed.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// (rank-0, no data) tensor; use New or FromSlice to construct usable values.
type Tensor struct {
	shape   []int
	strides []int
	data    []float32
}

// New returns a zero-filled tensor with the given shape. It returns an error
// if any dimension is negative or the element count overflows int.
func New(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		if d != 0 && n > math.MaxInt/d {
			return nil, fmt.Errorf("tensor: shape %v overflows element count", shape)
		}
		n *= d
	}
	t := &Tensor{
		shape:   append([]int(nil), shape...),
		strides: stridesFor(shape),
		data:    make([]float32, n),
	}
	return t, nil
}

// MustNew is New but panics on error. It is intended for statically known
// shapes in tests, examples and package-internal constructors.
func MustNew(shape ...int) *Tensor {
	t, err := New(shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The data slice is NOT
// copied; the caller must not alias it unless that sharing is intended. Use
// Clone for an owned copy.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in shape %v", d, shape)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: shape %v wants %d elements, got %d", shape, n, len(data))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: stridesFor(shape),
		data:    data,
	}, nil
}

// MustFromSlice is FromSlice but panics on error.
func MustFromSlice(data []float32, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

func stridesFor(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. The slice is shared with the tensor;
// mutating it mutates the tensor. This is the intended fast path for the
// convolution kernels.
func (t *Tensor) Data() []float32 { return t.data }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// offset computes the linear offset of a multi-index. It panics on rank
// mismatch or out-of-range indices (programming errors, not runtime inputs).
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			// Format a copy: passing idx itself would make every At/Set
			// caller's variadic index slice escape to the heap.
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", append([]int(nil), idx...), t.shape))
		}
		off += x * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// At3 is a fast-path accessor for rank-3 (CHW) tensors.
func (t *Tensor) At3(c, h, w int) float32 {
	return t.data[c*t.strides[0]+h*t.strides[1]+w]
}

// Set3 is a fast-path setter for rank-3 (CHW) tensors.
func (t *Tensor) Set3(v float32, c, h, w int) {
	t.data[c*t.strides[0]+h*t.strides[1]+w] = v
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{
		shape:   append([]int(nil), t.shape...),
		strides: append([]int(nil), t.strides...),
		data:    append([]float32(nil), t.data...),
	}
	return c
}

// CopyFrom copies o's data into t. The shapes must match exactly.
func (t *Tensor) CopyFrom(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("tensor: copy shape mismatch %v != %v", t.shape, o.shape)
	}
	copy(t.data, o.data)
	return nil
}

// Reshape returns a view of t with a new shape covering the same data. The
// element counts must match. The returned tensor shares storage with t.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d in reshape to %v", d, shape)
		}
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.shape, len(t.data), shape, n)
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: stridesFor(shape),
		data:    t.data,
	}, nil
}

// Channel returns a rank-2 view (H, W) of channel c of a rank-3 CHW tensor.
// The view shares storage with t.
func (t *Tensor) Channel(c int) (*Tensor, error) {
	if len(t.shape) != 3 {
		return nil, fmt.Errorf("tensor: Channel needs rank-3 CHW tensor, got rank %d", len(t.shape))
	}
	if c < 0 || c >= t.shape[0] {
		return nil, fmt.Errorf("tensor: channel %d out of range [0,%d)", c, t.shape[0])
	}
	hw := t.shape[1] * t.shape[2]
	return &Tensor{
		shape:   []int{t.shape[1], t.shape[2]},
		strides: []int{t.shape[2], 1},
		data:    t.data[c*hw : (c+1)*hw],
	}, nil
}

// Filter returns a rank-3 view (C, H, W) of filter f of a rank-4 FCHW filter
// bank. The view shares storage with t.
func (t *Tensor) Filter(f int) (*Tensor, error) {
	if len(t.shape) != 4 {
		return nil, fmt.Errorf("tensor: Filter needs rank-4 FCHW tensor, got rank %d", len(t.shape))
	}
	if f < 0 || f >= t.shape[0] {
		return nil, fmt.Errorf("tensor: filter %d out of range [0,%d)", f, t.shape[0])
	}
	chw := t.shape[1] * t.shape[2] * t.shape[3]
	return &Tensor{
		shape:   []int{t.shape[1], t.shape[2], t.shape[3]},
		strides: stridesFor(t.shape[1:]),
		data:    t.data[f*chw : (f+1)*chw],
	}, nil
}

// Stack copies equal-shaped tensors into one new tensor with a leading batch
// dimension: n inputs of shape (d₀,…) become (n, d₀, …). It is the packing
// step of the batch-native forward path — per-sample CHW images become the
// NCHW micro-batch one GEMM per layer consumes. The data is copied, so the
// result does not alias the inputs.
func Stack(ts []*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: stack needs at least one tensor")
	}
	for i, t := range ts {
		if t == nil {
			return nil, fmt.Errorf("tensor: stack input %d is nil", i)
		}
		if !ts[0].SameShape(t) {
			return nil, fmt.Errorf("tensor: stack shape mismatch at input %d: %v != %v",
				i, t.shape, ts[0].shape)
		}
	}
	out, err := New(append([]int{len(ts)}, ts[0].shape...)...)
	if err != nil {
		return nil, err
	}
	per := ts[0].Len()
	for i, t := range ts {
		copy(out.data[i*per:(i+1)*per], t.data)
	}
	return out, nil
}

// Pack is Stack without the copy when there is nothing to interleave: one
// tensor becomes a (1, d₀, …) view that SHARES its storage, two or more are
// Stacked. It is how a single sample enters the batch-native forward path
// as a batch of one.
func Pack(ts []*Tensor) (*Tensor, error) {
	if len(ts) == 1 && ts[0] != nil {
		return ts[0].Reshape(append([]int{1}, ts[0].shape...)...)
	}
	return Stack(ts)
}

// Sample returns a rank-(r−1) view of sample i of a batched tensor (leading
// dimension = batch). The view shares storage with t.
func (t *Tensor) Sample(i int) (*Tensor, error) {
	if len(t.shape) < 2 {
		return nil, fmt.Errorf("tensor: Sample needs rank >= 2 (batch-leading), got shape %v", t.shape)
	}
	if i < 0 || i >= t.shape[0] {
		return nil, fmt.Errorf("tensor: sample %d out of range [0,%d) for shape %v", i, t.shape[0], t.shape)
	}
	per := 1
	for _, d := range t.shape[1:] {
		per *= d
	}
	return &Tensor{
		shape:   append([]int(nil), t.shape[1:]...),
		strides: stridesFor(t.shape[1:]),
		data:    t.data[i*per : (i+1)*per],
	}, nil
}

// String renders a compact description (not the full contents) suitable for
// debugging and layer summaries.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.shape, len(t.data))
}
