package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/train"
)

// ConfusionCompareResult reproduces the in-text Section III-B result: "we
// naively replace the first of the filters with a Sobel-x, Sobel-y, Sobel-x
// filter. We compare both the confusion matrices of the original and
// replaced filters and the accuracy and note no substantial difference."
type ConfusionCompareResult struct {
	OriginalAccuracy float64
	ReplacedAccuracy float64
	// MaxCellDiff is the largest per-cell confusion difference as a
	// fraction of the total observations.
	MaxCellDiff float64
	Original    *train.ConfusionMatrix
	Replaced    *train.ConfusionMatrix
}

// RunConfusionCompare replaces filter 0 of m with the paper's Sobel filter
// and compares confusion matrices.
func RunConfusionCompare(m *Model) (*ConfusionCompareResult, error) {
	net, testSet := m.Net, m.Test
	orig, err := train.Evaluate(net, testSet)
	if err != nil {
		return nil, err
	}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	sobel, err := core.PaperSobelFilter(conv1.Kernel())
	if err != nil {
		return nil, err
	}
	prev, prevBias, err := core.ReplaceFilter(conv1, 0, sobel)
	if err != nil {
		return nil, err
	}
	replaced, err := train.Evaluate(net, testSet)
	if err != nil {
		return nil, err
	}
	if err := core.RestoreFilter(conv1, 0, prev, prevBias); err != nil {
		return nil, err
	}
	diff, err := orig.MaxAbsDiff(replaced)
	if err != nil {
		return nil, err
	}
	return &ConfusionCompareResult{
		OriginalAccuracy: orig.Accuracy(),
		ReplacedAccuracy: replaced.Accuracy(),
		MaxCellDiff:      diff,
		Original:         orig,
		Replaced:         replaced,
	}, nil
}

// Markdown renders the comparison.
func (r *ConfusionCompareResult) Markdown() string {
	return fmt.Sprintf(
		"Replacing filter 0 with the Sobel-x/Sobel-y/Sobel-x filter:\n\n"+
			"| | Accuracy |\n| --- | --- |\n| original | %.4f |\n| replaced | %.4f |\n\n"+
			"max confusion-cell difference: %.4f of observations\n\n"+
			"original:\n```\n%s```\nreplaced:\n```\n%s```\n",
		r.OriginalAccuracy, r.ReplacedAccuracy, r.MaxCellDiff,
		r.Original.String(), r.Replaced.String())
}

// FreezeStudyRow is one freeze regime's outcome.
type FreezeStudyRow struct {
	Mode     train.FreezeMode
	Accuracy float64
	// Drift is the L2 distance of the pre-initialised filter from its
	// initialisation after training.
	Drift float64
}

// FreezeStudyResult reproduces the in-text Section III-B pre-initialisation
// study: pre-initialise a filter to Sobel, train with the filter frozen
// (hard / TF-style drift / reset each epoch), and observe that "the accuracy
// of the model is not affected" while the TF-style freeze still lets the
// filter undergo "subtle changes".
type FreezeStudyResult struct {
	FreeAccuracy float64 // no Sobel pre-initialisation at all
	Rows         []FreezeStudyRow
}

// RunFreezeStudy trains one model per freeze regime from m's configuration
// and compares each with m, the free training.
func RunFreezeStudy(m *Model) (*FreezeStudyResult, error) {
	free, err := train.Accuracy(m.Net, m.Test)
	if err != nil {
		return nil, err
	}
	res := &FreezeStudyResult{FreeAccuracy: free}
	for _, mode := range []train.FreezeMode{train.FreezeHard, train.FreezeDrift, train.FreezeResetEpoch} {
		var fz *train.FilterFreeze
		frozen, err := trainModel(m.Config, func(net *nn.Sequential) (*train.FilterFreeze, error) {
			conv1, err := nn.FirstConv(net)
			if err != nil {
				return nil, err
			}
			sobel, err := core.PaperSobelFilter(conv1.Kernel())
			if err != nil {
				return nil, err
			}
			if _, _, err := core.ReplaceFilter(conv1, 0, sobel); err != nil {
				return nil, err
			}
			fz, err = train.NewFilterFreeze(conv1, mode, 0)
			return fz, err
		})
		if err != nil {
			return nil, err
		}
		acc, err := train.Accuracy(frozen.Net, frozen.Test)
		if err != nil {
			return nil, err
		}
		drift, err := fz.Drift(0)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, FreezeStudyRow{Mode: mode, Accuracy: acc, Drift: drift})
	}
	return res, nil
}

// Markdown renders the study.
func (r *FreezeStudyResult) Markdown() string {
	rows := make([][]string, 0, len(r.Rows)+1)
	rows = append(rows, []string{"free training (no Sobel)", fmt.Sprintf("%.4f", r.FreeAccuracy), "—"})
	for _, row := range r.Rows {
		rows = append(rows, []string{
			"sobel + " + row.Mode.String(),
			fmt.Sprintf("%.4f", row.Accuracy),
			fmt.Sprintf("%.5f", row.Drift),
		})
	}
	return Markdown([]string{"Regime", "Accuracy", "Filter drift (L2)"}, rows)
}
