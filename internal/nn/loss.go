package nn

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/tensor"
)

// Softmax returns the softmax distribution over a flat logits tensor.
func Softmax(logits *tensor.Tensor) ([]float32, error) {
	if logits.Rank() != 1 {
		return nil, fmt.Errorf("nn: softmax wants a flat logits tensor, got %v", logits.Shape())
	}
	probs := make([]float32, logits.Len())
	if err := mathx.Softmax(probs, logits.Data()); err != nil {
		return nil, fmt.Errorf("nn: softmax: %w", err)
	}
	return probs, nil
}

// CrossEntropyLossBatch computes softmax cross-entropy for an (N, K) logits
// batch and the (N, K) gradient w.r.t. the logits (p − onehot per row, the
// combined form that avoids the numerically fragile separate softmax
// backward). Rows are independent, so row i is bit-identical whatever batch
// it rides in. The returned loss is the SUM of the per-sample losses, added
// in row order; the caller owns the 1/N averaging.
func CrossEntropyLossBatch(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor, err error) {
	if logits.Rank() != 2 {
		return 0, nil, fmt.Errorf("nn: loss wants (N,K) logits, got %v", logits.Shape())
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return 0, nil, fmt.Errorf("nn: loss got %d labels for %d logit rows", len(labels), n)
	}
	ld := logits.Data()
	grad = tensor.MustNew(n, k)
	g := grad.Data()
	for i, label := range labels {
		if label < 0 || label >= k {
			return 0, nil, fmt.Errorf("nn: loss label %d (row %d) out of range [0,%d)", label, i, k)
		}
		row := g[i*k : (i+1)*k]
		if err := mathx.Softmax(row, ld[i*k:(i+1)*k]); err != nil {
			return 0, nil, fmt.Errorf("nn: loss softmax (row %d): %w", i, err)
		}
		p := float64(row[label])
		if p < 1e-30 {
			p = 1e-30
		}
		loss += -math.Log(p)
		row[label] -= 1
	}
	return loss, grad, nil
}

// SoftmaxArgmax returns the softmax distribution over a flat logits tensor
// and its argmax class (ties resolve to the lowest index). It is THE
// logits-to-verdict tail shared by every prediction path — train's pooled
// evaluation and core's result finishing — so a row's verdict cannot
// depend on which entry point produced its logits.
func SoftmaxArgmax(logits *tensor.Tensor) (probs []float32, class int, err error) {
	probs, err = Softmax(logits)
	if err != nil {
		return nil, 0, err
	}
	for i, p := range probs {
		if p > probs[class] {
			class = i
		}
	}
	return probs, class, nil
}
