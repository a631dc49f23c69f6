package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/train"
)

// Figure4Config sizes the Figure 4 model, the one trained network every
// study of the in-text results and the weight-memory study reads.
type Figure4Config struct {
	// Micro is the network architecture (default nn.DefaultMicroConfig:
	// 16 first-layer filters standing in for AlexNet's 96).
	Micro nn.MicroConfig
	// PerClass is the number of training examples per class (default 20).
	PerClass int
	// Epochs is the training epoch count (default 10).
	Epochs int
	// LR is the SGD learning rate (default 0.03).
	LR float32
	// Seed drives all randomness.
	Seed int64
}

func (c Figure4Config) normalize() Figure4Config {
	if c.Micro.InputSize == 0 {
		c.Micro = nn.DefaultMicroConfig()
	}
	if c.PerClass == 0 {
		c.PerClass = 20
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.LR == 0 {
		c.LR = 0.03
	}
	return c
}

// Model is a trained Figure 4 network, the held-out test set it is judged
// on and the configuration it was trained from. Every study that reads it
// restores what it mutates, so one Model serves them all in any order.
type Model struct {
	Config Figure4Config
	Net    *nn.Sequential
	Test   *gtsrb.Dataset
}

// TrainFigure4 trains the Figure 4 model.
func TrainFigure4(cfg Figure4Config) (*Model, error) { return trainModel(cfg.normalize(), nil) }

// trainModel trains the Figure 4 architecture from cfg (already
// normalised). prepare, when non-nil, runs on the initialised network
// before training and returns the filter freeze the trainer enforces; it
// draws no random numbers, so every model of one seed starts from the same
// weights and sees the same batches.
func trainModel(cfg Figure4Config, prepare func(*nn.Sequential) (*train.FilterFreeze, error)) (*Model, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	net, err := nn.NewMicroAlexNet(cfg.Micro, rng)
	if err != nil {
		return nil, err
	}
	var freezes []*train.FilterFreeze
	if prepare != nil {
		fz, err := prepare(net)
		if err != nil {
			return nil, err
		}
		freezes = []*train.FilterFreeze{fz}
	}
	ds, err := gtsrb.Generate(gtsrb.Config{
		Size: cfg.Micro.InputSize, PerClass: cfg.PerClass + cfg.PerClass/2,
	}, rand.New(rand.NewSource(cfg.Seed+1)))
	if err != nil {
		return nil, err
	}
	trainSet, testSet, err := ds.Split(2.0 / 3.0)
	if err != nil {
		return nil, err
	}
	opt, err := train.NewSGD(cfg.LR, 0.9, 1e-4)
	if err != nil {
		return nil, err
	}
	tr := &train.Trainer{Net: net, Opt: opt, BatchSize: 8, Epochs: cfg.Epochs, Freezes: freezes, Rng: rng}
	if _, err := tr.Fit(trainSet); err != nil {
		return nil, err
	}
	return &Model{Config: cfg, Net: net, Test: testSet}, nil
}

// Figure4Row is one sweep point: the model with filter Index replaced by
// the paper's Sobel-x/Sobel-y/Sobel-x filter.
type Figure4Row struct {
	Index          int
	StopConfidence float64
	Accuracy       float64
}

// Figure4Result is the reproduced figure.
type Figure4Result struct {
	// Baseline metrics of the unmodified trained model — the red dotted
	// line of the paper's plot.
	BaselineAccuracy       float64
	BaselineStopConfidence float64
	Rows                   []Figure4Row
}

// RunFigure4 regenerates Figure 4 on m: "replacing all the N filters one at
// a time with the Sobel filters results in the plot of class confidence
// values ... It is clearly visible that the accuracy varies substantially
// depending on which filter has been replaced."
func RunFigure4(m *Model) (*Figure4Result, error) {
	net, testSet := m.Net, m.Test
	acc, err := train.Accuracy(net, testSet)
	if err != nil {
		return nil, err
	}
	conf, err := train.MeanClassConfidence(net, testSet, gtsrb.StopClass)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{BaselineAccuracy: acc, BaselineStopConfidence: conf}

	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	sobel, err := core.PaperSobelFilter(conv1.Kernel())
	if err != nil {
		return nil, err
	}
	for idx := 0; idx < conv1.Filters(); idx++ {
		prev, prevBias, err := core.ReplaceFilter(conv1, idx, sobel)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure4 replace %d: %w", idx, err)
		}
		conf, err := train.MeanClassConfidence(net, testSet, gtsrb.StopClass)
		if err != nil {
			return nil, err
		}
		acc, err := train.Accuracy(net, testSet)
		if err != nil {
			return nil, err
		}
		if err := core.RestoreFilter(conv1, idx, prev, prevBias); err != nil {
			return nil, fmt.Errorf("experiments: figure4 restore %d: %w", idx, err)
		}
		res.Rows = append(res.Rows, Figure4Row{Index: idx, StopConfidence: conf, Accuracy: acc})
	}
	return res, nil
}

// Spread returns the min and max accuracy across the sweep — the
// "varies substantially" observation.
func (r *Figure4Result) Spread() (lo, hi float64) {
	if len(r.Rows) == 0 {
		return 0, 0
	}
	lo, hi = r.Rows[0].Accuracy, r.Rows[0].Accuracy
	for _, row := range r.Rows {
		lo, hi = min(lo, row.Accuracy), max(hi, row.Accuracy)
	}
	return lo, hi
}

// Markdown renders the result.
func (r *Figure4Result) Markdown() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Index),
			fmt.Sprintf("%.4f", row.StopConfidence),
			fmt.Sprintf("%.4f", row.Accuracy),
		})
	}
	lo, hi := r.Spread()
	return fmt.Sprintf("Baseline: accuracy %.4f, stop confidence %.4f (the red dotted line)\n\n",
		r.BaselineAccuracy, r.BaselineStopConfidence) +
		Markdown([]string{"Replaced filter", "Stop confidence", "Accuracy"}, rows) +
		fmt.Sprintf("\nAccuracy spread across replacements: %.4f – %.4f\n", lo, hi)
}
