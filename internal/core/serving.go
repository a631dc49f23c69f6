package core

import (
	"fmt"
	"sync"

	"repro/internal/infer"
	"repro/internal/tensor"
)

// BatchClassifier is a persistent pooled hybrid classifier: the worker pool
// — one forward context and one reliable engine per worker — is built once
// and reused across every batch, so a serving layer pays the engine
// construction cost at startup instead of per call. It is safe for
// concurrent use: overlapping ClassifyBatch calls queue on the pool's
// one-batch-at-a-time lock, each batch running with the full pool.
//
// Execution is sub-batch native: each worker claims contiguous sub-batches
// of the incoming batch, runs the reliable stage and qualifier per image
// (per-execution bucket/counter semantics) and the non-reliable CNN portion
// as ONE NCHW micro-batch — so the serve tier's MaxBatch directly sets how
// much weight-streaming the GEMMs amortise.
type BatchClassifier struct {
	h    *HybridNetwork
	pool *infer.BatchEngine
}

// NewBatchClassifier builds the persistent pool (workers 0 defaults to
// GOMAXPROCS) over the hybrid network's shared weights, with the default
// sub-batch policy.
func (h *HybridNetwork) NewBatchClassifier(workers int) (*BatchClassifier, error) {
	return h.NewBatchClassifierConfig(infer.Config{Workers: workers})
}

// NewBatchClassifierConfig is NewBatchClassifier with the pool's full
// configuration (worker count and sub-batch cap, validated by infer.New);
// the per-worker reliable engines are always the network's own, whatever
// cfg.EngineFactory holds.
func (h *HybridNetwork) NewBatchClassifierConfig(cfg infer.Config) (*BatchClassifier, error) {
	cfg.EngineFactory = h.newEngine
	pool, err := infer.New(h.net, cfg)
	if err != nil {
		return nil, err
	}
	return &BatchClassifier{h: h, pool: pool}, nil
}

// Workers returns the pool size.
func (c *BatchClassifier) Workers() int { return c.pool.Workers() }

// SubBatch returns the configured sub-batch cap (0 = ⌈batch/workers⌉).
func (c *BatchClassifier) SubBatch() int { return c.pool.SubBatch() }

// ClassifyBatch classifies every image across the pool, returning results
// in input order. Workers claim per-worker sub-batches (ragged tails
// rebalance through work stealing); within a sub-batch the reliable stage
// runs per image — each worker's leaky bucket is reset between images and
// the reliable-work counters are reported as per-inference deltas, so every
// result keeps the per-execution semantics of Classify — while the CNN
// stage runs the whole sub-batch through one batched forward pass.
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
// the non-reliable prefix batched and then join the full images' feature
// maps in one batched CNN continuation, so full-pipeline results are
// bit-identical whatever the batch mix (the GEMM kernels are batch-width
// independent).
func (c *BatchClassifier) ClassifyBatchPipelined(imgs []*tensor.Tensor, pipes []Pipeline) ([]Result, StageTimes, error) {
	if pipes != nil && len(pipes) != len(imgs) {
		return nil, StageTimes{}, fmt.Errorf("core: %d pipelines for %d images", len(pipes), len(imgs))
	}
	results := make([]Result, len(imgs))
	// Chunks complete on concurrent pool workers; fold their per-chunk
	// stage times under a lock.
	var mu sync.Mutex
	var times StageTimes
	err := c.pool.RunSub(len(imgs), func(w *infer.Worker, lo, hi int) error {
		var st StageTimes
		var chunkPipes []Pipeline
		if pipes != nil {
			chunkPipes = pipes[lo:hi]
		}
		err := c.h.classifyChunkPipelined(w.Ctx, w.Engine, imgs[lo:hi], chunkPipes, results[lo:hi], &st)
		mu.Lock()
		times.Add(st)
		mu.Unlock()
		return err
	})
	if err != nil {
		return nil, times, err
	}
	return results, times, nil
}
