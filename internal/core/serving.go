package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/nn"
	"repro/internal/pool"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// worker is one classifier goroutine's private state: a forward context
// (activation caches, batch-sized im2col/GEMM scratch) and a reliable
// engine. The network weights are shared and immutable, so workers share
// nothing else.
type worker struct {
	ctx    *nn.Context
	engine *reliable.Engine
	edges  *tensor.Tensor // the qualifier's edge map, reused while its shape holds
	// conv1Out is conv1's reliably computed output for a chunk of one
	// image, reused while its shape holds. The CNN stage runs a batch of
	// one on it in place (a view, no copy) and no Result refers to it;
	// a larger chunk's outputs are copied into one batch, so they are not
	// kept.
	conv1Out *tensor.Tensor
}

// newWorker builds a fresh context and reliable engine (ops + bucket).
func (h *HybridNetwork) newWorker() (worker, error) {
	ops, err := h.cfg.Mode.NewOps(h.cfg.ALUs)
	if err != nil {
		return worker{}, err
	}
	bucket, err := reliable.NewLeakyBucket(h.cfg.BucketFactor, h.cfg.BucketCeiling)
	if err != nil {
		return worker{}, err
	}
	engine, err := reliable.NewEngine(ops, bucket)
	if err != nil {
		return worker{}, err
	}
	return worker{ctx: nn.NewContext(), engine: engine}, nil
}

// BatchClassifier is a persistent pooled hybrid classifier: the workers —
// one forward context and one reliable engine each — are built once and
// reused across every batch, so a serving layer pays the engine
// construction cost at startup instead of per call.
//
// Execution is sub-batch native: a batch splits into contiguous sub-batches
// (SubBatch images each, default ⌈batch/workers⌉), claimed by the workers
// through internal/pool work stealing so ragged tails and slow sub-batches
// (retry storms, early bucket trips) rebalance. Each worker runs the
// reliable stage and qualifier per image (per-execution bucket/counter
// semantics) and the non-reliable CNN portion as ONE NCHW micro-batch — so
// the serve tier's MaxBatch directly sets how much weight-streaming the
// GEMMs amortise. This pool is the only parallelism: every GEMM runs on the
// worker that issued it.
//
// It is safe for concurrent use. A worker's context is not re-entrant, so
// the classifier runs one batch at a time: overlapping calls queue on mu
// and each batch runs with the full pool.
type BatchClassifier struct {
	h        *HybridNetwork
	workers  []worker
	subBatch int

	mu sync.Mutex
}

// NewBatchClassifier builds the persistent pool (workers 0 defaults to
// GOMAXPROCS) over the hybrid network's shared weights, with the default
// sub-batch size.
func (h *HybridNetwork) NewBatchClassifier(workers int) (*BatchClassifier, error) {
	return NewBatchClassifier(h, workers, 0)
}

// NewBatchClassifier builds the persistent pool over h: workers is the pool
// size (0 = GOMAXPROCS) and subBatch the per-worker NCHW micro-batch cap
// (0 = ⌈batch/workers⌉); negative values are refused.
func NewBatchClassifier(h *HybridNetwork, workers, subBatch int) (*BatchClassifier, error) {
	n := workers
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return nil, fmt.Errorf("core: worker count %d must be >= 1", workers)
	}
	if subBatch < 0 {
		return nil, fmt.Errorf("core: sub-batch size %d must be >= 0", subBatch)
	}
	c := &BatchClassifier{h: h, workers: make([]worker, n), subBatch: subBatch}
	for i := range c.workers {
		w, err := h.newWorker()
		if err != nil {
			return nil, fmt.Errorf("core: worker %d: %w", i, err)
		}
		c.workers[i] = w
	}
	return c, nil
}

// Workers returns the pool size.
func (c *BatchClassifier) Workers() int { return len(c.workers) }

// SubBatch returns the configured sub-batch cap (0 = ⌈batch/workers⌉).
func (c *BatchClassifier) SubBatch() int { return c.subBatch }

// ClassifyBatch classifies every image across the pool, returning results
// in input order. Within a sub-batch the reliable stage runs per image —
// each worker's leaky bucket is reset between images and the reliable-work
// counters are reported as per-inference deltas, so every result keeps the
// per-execution semantics of Classify — while the CNN stage runs the whole
// sub-batch through one batched forward pass.
func (c *BatchClassifier) ClassifyBatch(imgs []*tensor.Tensor) ([]Result, error) {
	results, _, err := c.ClassifyBatchPipelined(imgs, nil)
	return results, err
}

// ClassifyBatchPipelined is ClassifyBatch plus the batch's per-stage
// wall-time breakdown (reliable stage, qualifier, batched CNN, summed
// across the workers that processed the batch's chunks; a handful of
// monotonic clock reads per chunk) and a per-image pipeline selection:
// pipes[i] == PipelineCNN runs image i through the batched CNN only (no
// reliable stage, no qualifier — its Result carries a zero Qualifier and
// safety-critical classes decide Rejected), PipelineFull keeps the full
// hybrid semantics. nil pipes means PipelineFull for every image. Mixed
// sub-batches coalesce: within a chunk the fast images run
// conv1 non-reliably, batched, and then join the full images' feature
// maps in one batched CNN continuation, so full-pipeline results are
// bit-identical whatever the batch mix (the GEMM kernels are batch-width
// independent).
func (c *BatchClassifier) ClassifyBatchPipelined(imgs []*tensor.Tensor, pipes []Pipeline) ([]Result, StageTimes, error) {
	if pipes != nil && len(pipes) != len(imgs) {
		return nil, StageTimes{}, fmt.Errorf("core: %d pipelines for %d images", len(pipes), len(imgs))
	}
	n := len(imgs)
	results := make([]Result, n)
	if n == 0 {
		return results, StageTimes{}, nil
	}
	size := c.subBatch
	if size == 0 {
		size = (n + len(c.workers) - 1) / len(c.workers)
	}
	// Chunks complete on concurrent pool workers; fold their per-chunk
	// stage times under a lock.
	var mu sync.Mutex
	var times StageTimes
	c.mu.Lock()
	defer c.mu.Unlock()
	err := pool.Run((n+size-1)/size, len(c.workers), func(wi, ci int) error {
		lo := ci * size
		hi := min(lo+size, n)
		var chunkPipes []Pipeline
		if pipes != nil {
			chunkPipes = pipes[lo:hi]
		}
		var st StageTimes
		err := c.h.classifyChunkPipelined(&c.workers[wi], imgs[lo:hi], chunkPipes, results[lo:hi], &st)
		mu.Lock()
		times.Add(st)
		mu.Unlock()
		return err
	})
	if err != nil {
		return nil, times, fmt.Errorf("core: %w", err)
	}
	return results, times, nil
}
