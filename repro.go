// Package repro is the public facade of the hybrid-CNN reproduction: it
// re-exports the types and constructors a downstream user needs to build,
// train and run a hybrid (reliable/non-reliable) convolutional neural
// network with a deterministic shape qualifier and an analytic reliability
// guarantee, as described in
//
//	H. D. Doran, S. Veljanovska — "Hybrid Convolutional Neural Networks
//	with Reliability Guarantee", DSN-W 2024 (arXiv:2405.05146).
//
// The implementation lives in the internal packages:
//
//	internal/tensor      dense float32 tensors
//	internal/mathx       numerics (softmax, quantiles, Welford)
//	internal/fault       SEU models, ALUs (incl. a bit-exact soft-float
//	                     IEEE-754 emulation), injection campaigns, ECC
//	internal/reliable    Algorithms 1–3: overloaded operators, leaky
//	                     bucket, reliable convolution and its unprotected
//	                     reference (NativeConv2D, the one direct-loop
//	                     oracle), checkpoint/rollback
//	internal/nn          CNN framework (conv, pool, LRN, dense, dropout)
//	                     with full backpropagation; AlexNet constructors
//	internal/pool        work-stealing fan-out shared by the pooled
//	                     classifier, evaluation and fault campaigns
//	internal/train       SGD, filter-freeze policies, pooled evaluation
//	internal/sax         Symbolic Aggregate approXimation
//	internal/shape       Sobel, segmentation, radial series, qualifier
//	internal/gtsrb       synthetic traffic-sign dataset
//	internal/core        the hybrid network (reliable conv1 → qualifier +
//	                     CNN), its pooled batch classifier and the
//	                     reliability guarantee
//	internal/onnxlite    platform-agnostic hybrid model description
//	internal/experiments regeneration of every table/figure of the paper
//
// One image at a time goes through HybridNetwork.Classify; batches go
// through a persistent pool built once with HybridNetwork.NewBatchClassifier
// (per-sample and batched results are identical, bucket-trip message
// included). See the runnable examples under examples/ and the CLIs under
// cmd/.
package repro

import (
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/shape"
)

// Re-exported core types: the hybrid network and its configuration.
type (
	// HybridNetwork is the paper's contribution: a CNN whose first
	// convolution executes reliably and feeds both a shape qualifier
	// (through its Sobel pair) and the conventional rest of the CNN, the
	// qualifier gating safety-critical classifications.
	HybridNetwork = core.HybridNetwork
	// HybridConfig assembles a HybridNetwork.
	HybridConfig = core.Config
	// HybridResult is a classification with its qualification verdict and
	// reliable-execution statistics.
	HybridResult = core.Result
	// RedundancyMode selects plain / temporal-DMR / spatial-DMR / TMR
	// execution of the reliable part.
	RedundancyMode = core.RedundancyMode
	// Guarantee is the analytic reliability guarantee.
	Guarantee = core.Guarantee
	// GuaranteeParams parameterises the guarantee computation.
	GuaranteeParams = core.GuaranteeParams
	// ShapeClass is the qualifier's deterministic shape taxonomy.
	ShapeClass = shape.Class
	// Network is the underlying sequential CNN.
	Network = nn.Sequential
	// LeakyBucket is the Algorithm 3 error counter.
	LeakyBucket = reliable.LeakyBucket
	// Dataset is a labelled synthetic traffic-sign collection.
	Dataset = gtsrb.Dataset
	// ForwardContext carries the per-goroutine mutable state of a
	// forward/backward pass (one per worker).
	ForwardContext = nn.Context
)

// Re-exported enumerations.
const (
	ModePlain       = core.ModePlain
	ModeTemporalDMR = core.ModeTemporalDMR
	ModeSpatialDMR  = core.ModeSpatialDMR
	ModeTMR         = core.ModeTMR

	DecisionQualified         = core.DecisionQualified
	DecisionRejected          = core.DecisionRejected
	DecisionNotSafetyRelevant = core.DecisionNotSafetyRelevant
	DecisionExecutionFailed   = core.DecisionExecutionFailed

	ClassOctagon  = shape.ClassOctagon
	ClassTriangle = shape.ClassTriangle
	ClassSquare   = shape.ClassSquare
	ClassCircle   = shape.ClassCircle
	ClassUnknown  = shape.ClassUnknown

	// StopClass is the safety-critical class index of the standard
	// synthetic dataset.
	StopClass = gtsrb.StopClass
)

// NewHybridNetwork wraps a trained CNN into a hybrid network.
func NewHybridNetwork(cfg HybridConfig, net *Network) (*HybridNetwork, error) {
	return core.NewHybridNetwork(cfg, net)
}

// ComputeGuarantee derives the analytic reliability guarantee for a fault
// environment and protection configuration.
func ComputeGuarantee(params GuaranteeParams) (Guarantee, error) {
	return core.ComputeGuarantee(params)
}
