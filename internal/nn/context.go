package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Context carries all per-call mutable state of a forward/backward pass:
// one activation cache per layer (what a training-mode ForwardBatch leaves
// for BackwardBatch), the im2col and GEMM scratch buffers (they grow to the
// largest micro-batch seen and are then reused call over call), the
// training switch, the dropout RNG and (optionally) context-local gradient
// accumulators. Layers
// themselves hold only immutable parameters, so any number of goroutines may
// run the SAME network concurrently as long as each uses its own Context —
// this is the contract the pooled classifier (internal/core), pooled
// evaluation and the data-parallel trainer (internal/train) build on.
//
// A Context is NOT safe for concurrent use; it is the unit of concurrency
// (one per goroutine/worker). The zero value is ready to use (NewContext is
// equivalent). The zero cost path is to allocate one and reuse it across
// calls: scratch buffers grow to the high-water mark and are then recycled.
type Context struct {
	training bool
	rng      *rand.Rand
	states   map[Layer]any
	grads    map[*tensor.Tensor]*tensor.Tensor
	shadow   bool
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
// through this context. Per-worker RNGs keep data-parallel training
// deterministic for a fixed worker count.
func (c *Context) SetRand(rng *rand.Rand) { c.rng = rng }

// Rand returns the context RNG (nil if none was set).
func (c *Context) Rand() *rand.Rand { return c.rng }

// Reset drops every cached layer state and shadow gradient. Scratch buffers
// held inside the dropped states are released to the GC; prefer reusing a
// context without Reset when running the same network repeatedly.
func (c *Context) Reset() {
	c.states = make(map[Layer]any)
	c.grads = nil
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

// ShadowGrads switches gradient accumulation into context-local buffers.
// With shadowing off (the default) BackwardBatch accumulates directly into each
// parameter's canonical Grad tensor — correct for a single context. With
// shadowing on, each context accumulates privately and the trainer reduces
// the shadows with FlushGrads after the concurrent section, which is what
// makes data-parallel backward passes race-free.
func (c *Context) ShadowGrads(on bool) { c.shadow = on }

// gradBuf returns the accumulation target for the canonical gradient tensor:
// the tensor itself, or this context's (lazily created, zero-initialised)
// shadow of it.
func (c *Context) gradBuf(canonical *tensor.Tensor) *tensor.Tensor {
	if !c.shadow {
		return canonical
	}
	if c.grads == nil {
		c.grads = make(map[*tensor.Tensor]*tensor.Tensor)
	}
	if g, ok := c.grads[canonical]; ok {
		return g
	}
	g := tensor.MustNew(canonical.Shape()...)
	c.grads[canonical] = g
	return g
}

// FlushGrads adds every shadow gradient into its canonical tensor and zeroes
// the shadow for the next accumulation round. It must be called from a
// single goroutine (the reduction step between concurrent batches).
func (c *Context) FlushGrads() error {
	for canonical, g := range c.grads {
		if err := canonical.AddInPlace(g); err != nil {
			return fmt.Errorf("nn: flush grads: %w", err)
		}
		g.Zero()
	}
	return nil
}
