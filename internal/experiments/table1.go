package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cli"
	"repro/internal/fault"
	"repro/internal/gtsrb"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// Table1Config sizes the Table 1 workload.
type Table1Config struct {
	// Full selects the paper's exact first AlexNet convolution layer:
	// 96 filters of 11×11×3 over a 227×227×3 input at stride 4
	// (105,415,200 MACs). When false, a scaled workload (16 filters of
	// 11×11×3 over 64×64×3) keeps CI fast while preserving the ratios.
	Full bool
	// Seed drives the input/filter contents.
	Seed int64
}

// Table1Row is one measurement row.
type Table1Row struct {
	Name    string
	Seconds float64
	// RatioVsPlain is the row's time over the reliable-plain row's time
	// (the paper's headline 648.87/301.91 ≈ 2.15).
	RatioVsPlain float64
}

// Table1Result carries all rows plus the workload description.
type Table1Result struct {
	Rows     []Table1Row
	Workload string
}

// RunTable1 regenerates Table 1: native execution, the reliable convolution
// kernel (Algorithm 3) with non-redundant multiplication (Algorithm 1) and
// with redundant multiplication (Algorithm 2), plus the SAX qualifier
// reference timing the paper quotes alongside (1.942 s naive Python).
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	res := &Table1Result{Workload: "scaled conv1: 16 × 11×11×3 over 64×64×3, stride 4"}
	in, filters := tensor.MustNew(3, 64, 64), tensor.MustNew(16, 3, 11, 11)
	// Each timed row runs reps times and reports its minimum (standard
	// wall-clock de-noising).
	reps := 3
	if cfg.Full {
		res.Workload = "AlexNet conv1: 96 × 11×11×3 over 227×227×3, stride 4"
		in, filters = tensor.MustNew(3, 227, 227), tensor.MustNew(96, 3, 11, 11)
		reps = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	in.FillUniform(rng, 0, 1)
	filters.FillUniform(rng, -0.1, 0.1)
	spec := reliable.ConvSpec{Stride: 4}

	// best runs each f reps times, round-robin (f0, f1, …, f0, f1, …), and
	// keeps the shortest duration each reports. Interleaving puts rows that
	// are compared with each other under the same contention from whatever
	// else the host runs, instead of one row taking a quiet stretch and the
	// other a busy one.
	best := func(fs ...func() (time.Duration, error)) ([]float64, error) {
		mins := make([]time.Duration, len(fs))
		for r := 0; r < reps; r++ {
			for i, f := range fs {
				d, err := f()
				if err != nil {
					return nil, err
				}
				if r == 0 || d < mins[i] {
					mins[i] = d
				}
			}
		}
		secs := make([]float64, len(fs))
		for i, d := range mins {
			secs[i] = d.Seconds()
		}
		return secs, nil
	}
	// conv times one convolution: the reliable kernel over ops, or native
	// (unprotected) execution — the paper's "native TensorFlow execution
	// achieves this in 0.05 s" reference row — when ops is nil.
	conv := func(ops reliable.Ops) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			start := time.Now()
			if ops == nil {
				_, err := reliable.NativeConv2D(in, filters, nil, spec)
				return time.Since(start), err
			}
			engine, err := reliable.NewEngine(ops, nil)
			if err != nil {
				return 0, err
			}
			_, err = reliable.Conv2D(engine, in, filters, nil, spec)
			return time.Since(start), err
		}
	}
	native, err := best(conv(nil))
	if err != nil {
		return nil, err
	}
	// The overloaded operators execute on the bit-level emulated IEEE-754
	// circuits (fault.Soft), the software stand-in for the FPGA arithmetic
	// operators the paper targets, so both reliable rows dwarf native
	// execution. Redundant multiplication doubles only that emulated
	// arithmetic: the engine's per-operation bookkeeping (the retry loop,
	// the work counters, the leaky bucket) and the kernel's loops run once
	// per operation in both rows. The redundant/plain ratio is therefore
	// (2·arithmetic + shared)/(arithmetic + shared), below 2: 1.30–1.46× in
	// scaled runs on a 2-vCPU Xeon. The paper's Python implementation
	// measured 2.15× (648.87 s against 301.91 s).
	plainOps, err := reliable.NewPlain(fault.Soft{})
	if err != nil {
		return nil, err
	}
	dmrOps, err := reliable.NewTemporalDMR(fault.Soft{})
	if err != nil {
		return nil, err
	}
	reliableSecs, err := best(conv(plainOps), conv(dmrOps))
	if err != nil {
		return nil, fmt.Errorf("experiments: table1 reliable rows: %w", err)
	}

	// SAX qualifier reference: the qualifier span of the served path (edge
	// magnitude from conv1's Sobel pair, closing, fill, radial series and
	// SAX) on an angled stop sign, as booked in StageTimes.Qualifier by
	// the demo hybrid's BatchClassifier.
	img, err := gtsrb.AngledStopSign(figure3Size, rand.New(rand.NewSource(cfg.Seed+1)))
	if err != nil {
		return nil, err
	}
	h, _, err := cli.DemoHybrid(figure3Size, 8, cfg.Seed)
	if err != nil {
		return nil, err
	}
	bc, err := h.NewBatchClassifier(1)
	if err != nil {
		return nil, err
	}
	sax, err := best(func() (time.Duration, error) {
		_, st, err := bc.ClassifyBatchPipelined([]*tensor.Tensor{img}, nil)
		return st.Qualifier, err
	})
	if err != nil {
		return nil, err
	}

	nativeSec, plainSec, dmrSec, saxSec := native[0], reliableSecs[0], reliableSecs[1], sax[0]
	res.Rows = []Table1Row{
		{Name: "native execution (reference)", Seconds: nativeSec, RatioVsPlain: nativeSec / plainSec},
		{Name: "reliable conv, Multiplication (Algorithm 1)", Seconds: plainSec, RatioVsPlain: 1},
		{Name: "reliable conv, Redundant Multiplication (Algorithm 2)", Seconds: dmrSec, RatioVsPlain: dmrSec / plainSec},
		{Name: "SAX shape determination (reference)", Seconds: saxSec, RatioVsPlain: saxSec / plainSec},
	}
	return res, nil
}

// Markdown renders the result.
func (r *Table1Result) Markdown() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.4f s", row.Seconds),
			fmt.Sprintf("%.3f×", row.RatioVsPlain),
		})
	}
	return "Workload: " + r.Workload + "\n\n" +
		Markdown([]string{"Execution", "Time", "vs Algorithm 1"}, rows)
}
