// Package infer is the batched, concurrency-safe execution layer between
// the CNN framework (internal/nn) and its callers (internal/core,
// internal/fault campaigns, the CLIs). It owns the worker-pool idiom the
// layer refactor enables: layers hold only immutable parameters, so a single
// network can serve as many concurrent passes as there are workers, each
// worker owning one nn.Context (activation caches + batch-sized im2col/GEMM
// scratch) and, when configured, one reliable.Engine for the reliably
// executed portion.
//
// There is one execution path: a batch of N images is split into contiguous
// sub-batches (Config.SubBatch images each, default ⌈N/workers⌉) and each
// worker drives its sub-batches through nn.Sequential.ForwardSamples — ONE
// blocked GEMM per layer per sub-batch instead of one per image, so
// convolution and dense layers stream their weights once per sub-batch.
// SubBatch is a pure size: 1 means batches of one through the same layers,
// and a sub-batch whose images disagree in shape splits into one batch per
// shape. This is a real algorithmic batch effect: throughput rises with
// batch size (weight-traffic amortisation) on top of rising with workers
// (parallelism), until the GEMM memory bandwidth saturates. Sub-batches are
// claimed through internal/pool work stealing, so ragged tails (N not
// divisible by workers×SubBatch) still balance.
//
// # Concurrency contract
//
// A BatchEngine runs ONE batch at a time, because the per-worker contexts a
// batch reuses are not re-entrant. RunSub — the one entry point, which
// ForwardBatched and PredictBatched are built on — holds a mutex for the
// length of the batch, so batches issued from several goroutines queue up
// and each runs with the full pool (core.BatchClassifier relies on this).
// Within a batch, work items are claimed lock-free through internal/pool
// work stealing; each worker touches only its own nn.Context and
// reliable.Engine, so no state is shared between workers except the
// immutable network weights.
package infer

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// Worker is the per-goroutine execution state handed to RunSub callbacks.
type Worker struct {
	// ID is the worker index in [0, Workers).
	ID int
	// Ctx is the worker's private forward/backward context.
	Ctx *nn.Context
	// Engine is the worker's reliable-execution engine (nil unless the
	// BatchEngine was built with an EngineFactory).
	Engine *reliable.Engine
}

// Config parameterises a BatchEngine.
type Config struct {
	// Workers is the pool size; 0 defaults to runtime.GOMAXPROCS(0).
	Workers int
	// SubBatch caps how many images a worker packs into one NCHW sub-batch
	// (one GEMM per layer per sub-batch). 0 defaults to ⌈batch/workers⌉ —
	// the whole batch in one GEMM sweep per worker. Smaller values trade
	// GEMM size for steal granularity (better balance when per-image cost
	// varies), down to 1: batches of one.
	SubBatch int
	// EngineFactory, when non-nil, builds one reliable.Engine per worker
	// (hybrid classification and fault campaigns need one; plain CNN
	// prediction does not).
	EngineFactory func() (*reliable.Engine, error)
}

// BatchEngine fans work items out across a fixed pool of workers. The
// network (if any) is shared; every mutable artefact is per-worker. A
// BatchEngine is reused across many batches — contexts and their scratch
// buffers persist, which is where the allocation win of batching lives —
// and runs them one at a time: concurrent callers queue on mu.
type BatchEngine struct {
	net      *nn.Sequential
	workers  []*Worker
	subBatch int

	// mu enforces the one-batch-at-a-time contract.
	mu sync.Mutex
}

// New builds a pool over net (which may be nil for engines used only via
// RunSub with closures that carry their own workload).
func New(net *nn.Sequential, cfg Config) (*BatchEngine, error) {
	n := cfg.Workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("infer: worker count %d must be >= 1", cfg.Workers)
	}
	if cfg.SubBatch < 0 {
		return nil, fmt.Errorf("infer: sub-batch size %d must be >= 0", cfg.SubBatch)
	}
	e := &BatchEngine{net: net, workers: make([]*Worker, n), subBatch: cfg.SubBatch}
	for i := range e.workers {
		w := &Worker{ID: i, Ctx: nn.NewContext()}
		if cfg.EngineFactory != nil {
			eng, err := cfg.EngineFactory()
			if err != nil {
				return nil, fmt.Errorf("infer: worker %d engine: %w", i, err)
			}
			w.Engine = eng
		}
		e.workers[i] = w
	}
	return e, nil
}

// Workers returns the pool size.
func (e *BatchEngine) Workers() int { return len(e.workers) }

// Net returns the shared network (possibly nil).
func (e *BatchEngine) Net() *nn.Sequential { return e.net }

// SubBatch returns the configured sub-batch cap (0 = ⌈batch/workers⌉).
func (e *BatchEngine) SubBatch() int { return e.subBatch }

// RunSub executes fn(worker, lo, hi) over contiguous sub-batches [lo, hi) of
// an n-item batch. Sub-batch size is Config.SubBatch (default ⌈n/workers⌉);
// sub-batches are claimed with work stealing — each worker pulls the next
// unclaimed one — so a ragged tail or a worker stuck on a slow sub-batch
// (retry storms, early bucket trips) rebalances instead of stalling the
// batch. Results must be written to disjoint [lo, hi) slices, which keeps
// the callback race-free. The first error cancels remaining work and is
// returned. Overlapping calls from different goroutines queue up and
// execute one at a time; fn must not call back into the same engine.
func (e *BatchEngine) RunSub(n int, fn func(w *Worker, lo, hi int) error) error {
	if fn == nil {
		return fmt.Errorf("infer: run needs a work function")
	}
	if n <= 0 {
		return nil
	}
	size := e.subBatch
	if size <= 0 {
		size = (n + len(e.workers) - 1) / len(e.workers) // >= 1: n > 0
	}
	chunks := (n + size - 1) / size
	e.mu.Lock()
	defer e.mu.Unlock()
	err := pool.Run(chunks, len(e.workers), func(worker, ci int) error {
		lo := ci * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		return fn(e.workers[worker], lo, hi)
	})
	if err != nil {
		return fmt.Errorf("infer: %w", err)
	}
	return nil
}

// Stats sums the reliable-execution work counters across all workers —
// the campaign-level aggregate. Zero when no EngineFactory was configured.
func (e *BatchEngine) Stats() reliable.Stats {
	var s reliable.Stats
	for _, w := range e.workers {
		if w.Engine != nil {
			s.Add(w.Engine.Stats())
		}
	}
	return s
}

// Prediction is one classification result from PredictBatched.
type Prediction struct {
	Class int
	Probs []float32
}

// ForwardBatched runs the shared network over every input — each worker
// packs its sub-batch into one NCHW tensor and issues one ForwardBatch (one
// GEMM per layer; a sub-batch of mixed shapes runs one batch per shape) —
// and returns per-sample outputs in input order. The outputs of one
// sub-batch are views over a shared backing array: writes stay disjoint per
// sample, but retaining one output retains the whole sub-batch's output
// memory (Clone a sample to keep it long-term).
func (e *BatchEngine) ForwardBatched(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if e.net == nil {
		return nil, fmt.Errorf("infer: engine has no network")
	}
	outs := make([]*tensor.Tensor, len(xs))
	err := e.RunSub(len(xs), func(w *Worker, lo, hi int) error {
		sub, err := e.net.ForwardSamples(w.Ctx, 0, e.net.Len(), xs[lo:hi])
		copy(outs[lo:hi], sub)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// PredictBatched classifies every input through ForwardBatched and softmaxes
// each logits row individually, returning probabilities and argmax classes
// in input order. Results are identical for any worker count and sub-batch
// size.
func (e *BatchEngine) PredictBatched(xs []*tensor.Tensor) ([]Prediction, error) {
	outs, err := e.ForwardBatched(xs)
	if err != nil {
		return nil, err
	}
	preds := make([]Prediction, len(xs))
	for i, logits := range outs {
		probs, class, err := nn.SoftmaxArgmax(logits)
		if err != nil {
			return nil, fmt.Errorf("infer: predict sample %d: %w", i, err)
		}
		preds[i] = Prediction{Class: class, Probs: probs}
	}
	return preds, nil
}
