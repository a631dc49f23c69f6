package core

import "fmt"

// Pipeline selects how much of the hybrid classify pipeline one image runs.
// The serving tier maps service classes onto pipelines: guaranteed (and
// non-degraded budget) requests run PipelineFull, fast and degraded-budget
// requests run PipelineCNN. Mixed-pipeline micro-batches still coalesce
// into one GEMM per layer — fast images run conv1 non-reliably,
// batched, then join the reliably computed feature maps in a single
// batched continuation — and the batch-width independence of the GEMM
// kernels keeps the full-pipeline riders' results bit-identical to a
// uniform batch.
type Pipeline uint8

const (
	// PipelineFull is the paper's hybrid: reliable stage + qualifier +
	// batched CNN, with per-execution bucket/counter semantics.
	PipelineFull Pipeline = iota
	// PipelineCNN runs the batched CNN only: no reliable execution, no
	// qualifier. The result carries a zero Qualifier, so safety-critical
	// classes come back DecisionRejected — a fast-pipeline answer is never
	// mistaken for a qualified one.
	PipelineCNN
)

// String implements fmt.Stringer.
func (p Pipeline) String() string {
	switch p {
	case PipelineFull:
		return "full"
	case PipelineCNN:
		return "cnn"
	default:
		return fmt.Sprintf("pipeline(%d)", int(p))
	}
}
