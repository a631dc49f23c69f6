package train

import (
	"fmt"
	"math/rand"

	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Trainer drives mini-batch SGD over a dataset with optional filter-freeze
// policies and an epoch callback. Each mini-batch stacks into one NCHW
// batch that runs through ForwardBatch, the batched cross-entropy gradient
// and BackwardBatch on a single training context — one GEMM per layer per
// direction for the whole mini-batch, so conv and fc weight matrices stream
// once per mini-batch instead of once per sample. Every image of a dataset
// must share one shape. Training is serial and reproducible: one seed
// gives one set of trained weights.
type Trainer struct {
	// Net is the network to train.
	Net *nn.Sequential
	// Opt is the optimiser.
	Opt *SGD
	// BatchSize is the mini-batch size (default 16 via Normalize).
	BatchSize int
	// Epochs is the number of passes over the data (default 5).
	Epochs int
	// Freezes are the active filter-freeze policies.
	Freezes []*FilterFreeze
	// OnEpoch, when non-nil, is called after every epoch with the epoch
	// index (0-based) and mean training loss; returning an error aborts.
	OnEpoch func(epoch int, meanLoss float64) error
	// Rng seeds the training context's dropout stream, then shuffles the
	// data each epoch.
	Rng *rand.Rand
}

// normalize validates the trainer and applies defaults.
func (t *Trainer) normalize() error {
	if t.Net == nil {
		return fmt.Errorf("train: trainer needs a network")
	}
	if t.Opt == nil {
		return fmt.Errorf("train: trainer needs an optimiser")
	}
	if t.Rng == nil {
		return fmt.Errorf("train: trainer needs an rng")
	}
	if t.BatchSize == 0 {
		t.BatchSize = 16
	}
	if t.BatchSize < 1 {
		return fmt.Errorf("train: batch size %d must be >= 1", t.BatchSize)
	}
	if t.Epochs == 0 {
		t.Epochs = 5
	}
	if t.Epochs < 1 {
		return fmt.Errorf("train: epochs %d must be >= 1", t.Epochs)
	}
	return nil
}

// Fit trains on the dataset and returns the mean training loss of the final
// epoch.
func (t *Trainer) Fit(ds *gtsrb.Dataset) (float64, error) {
	if err := t.normalize(); err != nil {
		return 0, err
	}
	if ds == nil || ds.Len() == 0 {
		return 0, fmt.Errorf("train: empty dataset")
	}

	// One training context; its dropout seed is drawn before the first
	// shuffle.
	ctx := nn.NewContext()
	ctx.SetTraining(true)
	ctx.SetRand(rand.New(rand.NewSource(t.Rng.Int63())))

	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	var lastMean float64
	for epoch := 0; epoch < t.Epochs; epoch++ {
		t.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		var seen int
		for start := 0; start < len(order); start += t.BatchSize {
			end := start + t.BatchSize
			if end > len(order) {
				end = len(order)
			}
			t.Net.ZeroGrads()
			batchLoss, err := t.runBatch(ctx, ds, order[start:end], epoch)
			if err != nil {
				return 0, err
			}
			lossSum += batchLoss
			seen += end - start
			for _, f := range t.Freezes {
				if err := f.BeforeStep(); err != nil {
					return 0, fmt.Errorf("train: epoch %d freeze: %w", epoch, err)
				}
			}
			if err := t.Opt.Step(t.Net.Params(), end-start); err != nil {
				return 0, fmt.Errorf("train: epoch %d step: %w", epoch, err)
			}
			for _, f := range t.Freezes {
				if err := f.AfterStep(); err != nil {
					return 0, fmt.Errorf("train: epoch %d freeze pin: %w", epoch, err)
				}
			}
		}
		for _, f := range t.Freezes {
			if err := f.AfterEpoch(); err != nil {
				return 0, fmt.Errorf("train: epoch %d freeze reset: %w", epoch, err)
			}
		}
		lastMean = lossSum / float64(seen)
		if t.OnEpoch != nil {
			if err := t.OnEpoch(epoch, lastMean); err != nil {
				return lastMean, fmt.Errorf("train: epoch callback: %w", err)
			}
		}
	}
	return lastMean, nil
}

// runBatch packs one mini-batch into an NCHW batch and drives it through
// ForwardBatch, the batched softmax-cross-entropy gradient and
// BackwardBatch, accumulating the batch's gradients into the canonical
// Param.Grad tensors. It returns the batch's total loss.
func (t *Trainer) runBatch(ctx *nn.Context, ds *gtsrb.Dataset, idxs []int, epoch int) (float64, error) {
	imgs := make([]*tensor.Tensor, len(idxs))
	labels := make([]int, len(idxs))
	for i, idx := range idxs {
		imgs[i], labels[i] = ds.Examples[idx].Image, ds.Examples[idx].Label
	}
	batch, err := tensor.Pack(imgs)
	if err != nil {
		return 0, fmt.Errorf("train: epoch %d pack: %w", epoch, err)
	}
	logits, err := t.Net.ForwardBatch(ctx, batch)
	if err != nil {
		return 0, fmt.Errorf("train: epoch %d forward: %w", epoch, err)
	}
	loss, grad, err := nn.CrossEntropyLossBatch(logits, labels)
	if err != nil {
		return 0, fmt.Errorf("train: epoch %d loss: %w", epoch, err)
	}
	if _, err := t.Net.BackwardBatch(ctx, grad); err != nil {
		return 0, fmt.Errorf("train: epoch %d backward: %w", epoch, err)
	}
	return loss, nil
}
