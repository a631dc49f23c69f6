package nn

import "math/rand"

// Context carries all per-call mutable state of a forward/backward pass:
// one activation cache per layer (what a training-mode ForwardBatch leaves
// for BackwardBatch), the GEMM scratch buffers and, in training contexts,
// the backward pass's im2col scratch (they grow to the largest micro-batch
// seen and are then reused call over call), the training switch and the
// dropout RNG. Layers hold no per-call state, so
// any number of goroutines may run ForwardBatch on the SAME network
// concurrently as long as each uses its own Context — the contract the
// pooled classifier (internal/core) and pooled evaluation (internal/train)
// build on. BackwardBatch accumulates into the layers' shared Param.Grad
// tensors, so backward passes over one network run on one goroutine (the
// trainer runs each mini-batch through a single training context).
//
// A Context is NOT safe for concurrent use; it is the unit of concurrency
// (one per goroutine/worker). The zero value is ready to use (NewContext is
// equivalent). The zero cost path is to allocate one and reuse it across
// calls: scratch buffers grow to the high-water mark and are then recycled,
// so a context kept in a pool (the hybrid network's Classify, the batch
// classifier's workers) carries its scratch from call to call.
//
// An inference pass may consume its input: a layer may rewrite the tensor
// it is handed instead of copying it (ReLU clamps in place). A caller whose
// tensor goes straight into such a layer — ForwardFrom or ForwardSamples
// entering at a ReLU, as the hybrid network's CNN stage does at layer 1 —
// must not expect it unchanged afterwards. Training passes never write
// their input.
type Context struct {
	training bool
	rng      *rand.Rand
	states   map[Layer]any
}

// NewContext returns an inference-mode context with no RNG.
func NewContext() *Context {
	return &Context{}
}

// SetTraining switches training-dependent behaviour (dropout masking) on or
// off for passes run through this context.
func (c *Context) SetTraining(on bool) { c.training = on }

// Training reports whether the context runs layers in training mode.
func (c *Context) Training() bool { return c.training }

// SetRand installs the RNG used by stochastic layers (dropout) running
// through this context, so a training run's dropout masks are a function
// of its seed.
func (c *Context) SetRand(rng *rand.Rand) { c.rng = rng }

// Rand returns the context RNG (nil if none was set).
func (c *Context) Rand() *rand.Rand { return c.rng }

// Reset drops every cached layer state. Scratch buffers held inside the
// dropped states are released to the GC; prefer reusing a context without
// Reset when running the same network repeatedly.
func (c *Context) Reset() {
	c.states = make(map[Layer]any)
}

// state returns the per-layer state for l, creating it with mk on first use.
func (c *Context) state(l Layer, mk func() any) any {
	if s, ok := c.states[l]; ok {
		return s
	}
	if c.states == nil {
		c.states = make(map[Layer]any)
	}
	s := mk()
	c.states[l] = s
	return s
}
