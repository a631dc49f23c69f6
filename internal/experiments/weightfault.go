package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/reliable"
	"repro/internal/tensor"
	"repro/internal/train"
)

// WeightFaultConfig sizes the weight-memory SEU study.
type WeightFaultConfig struct {
	// UpsetCounts is the sweep of injected single-bit upsets into the
	// first convolution layer's weight memory (default 1, 4, 16, 64).
	UpsetCounts []int
	// DoubleFraction is the fraction of upset words that receive a SECOND
	// upset (uncorrectable by SECDED; default 0.25).
	DoubleFraction float64
	// Trials per upset count (default 5).
	Trials int
}

func (c WeightFaultConfig) normalize() WeightFaultConfig {
	if len(c.UpsetCounts) == 0 {
		c.UpsetCounts = []int{1, 4, 16, 64}
	}
	if c.DoubleFraction == 0 {
		c.DoubleFraction = 0.25
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	return c
}

// WeightFaultRow is one sweep point (averaged over trials).
type WeightFaultRow struct {
	Upsets int
	// AccuracyUnprotected is the test accuracy with corrupted weights and
	// no memory protection.
	AccuracyUnprotected float64
	// AccuracyECC is the test accuracy when the weights live in SECDED ECC
	// memory: single upsets are corrected on read, double upsets detected.
	AccuracyECC float64
	// DetectedWords is the mean number of words whose corruption the ECC
	// flagged as uncorrectable (read back as detected, excluded from use
	// by zeroing — a masking strategy akin to activation clipping).
	DetectedWords float64
}

// WeightFaultResult is the study outcome.
type WeightFaultResult struct {
	BaselineAccuracy float64
	Rows             []WeightFaultRow
	// DMRMissesWeightFault records the Section II point that redundant
	// EXECUTION cannot detect corrupted STORAGE: with one weight word
	// corrupted, the temporal-DMR convolution finishes with zero detected
	// errors yet produces a wrong feature map.
	DMRMissesWeightFault bool
}

// RunWeightFaultStudy quantifies the paper's second fault class — "data
// corruption of the weights and input data may critically alter the result"
// — and shows why the hybrid architecture pairs reliable execution with
// independent protection for stored state (the ECC the GPU vendors of
// Section II-C deploy). It runs on m's weights, which it restores, and
// seeds its upsets from m's seed.
func RunWeightFaultStudy(m *Model, cfg WeightFaultConfig) (*WeightFaultResult, error) {
	cfg = cfg.normalize()
	net, testSet := m.Net, m.Test
	baseline, err := train.Accuracy(net, testSet)
	if err != nil {
		return nil, err
	}
	res := &WeightFaultResult{BaselineAccuracy: baseline}
	conv1, err := nn.FirstConv(net)
	if err != nil {
		return nil, err
	}
	weights := conv1.Weight().Data()
	pristine := append([]float32(nil), weights...)
	restore := func() { copy(weights, pristine) }
	defer restore()

	rng := rand.New(rand.NewSource(m.Config.Seed + 77))
	for _, upsets := range cfg.UpsetCounts {
		if upsets > len(weights) {
			return nil, fmt.Errorf("experiments: %d upsets exceed %d weight words", upsets, len(weights))
		}
		var accPlain, accECC, detected float64
		for trial := 0; trial < cfg.Trials; trial++ {
			// Choose the upset words once per trial so both arms see the
			// same fault pattern.
			words := rng.Perm(len(weights))[:upsets]
			doubles := int(cfg.DoubleFraction * float64(upsets))

			// Arm 1: unprotected memory.
			restore()
			for i, w := range words {
				weights[w] = fault.CorruptFloat(fault.BitFlip{Bit: -1}, weights[w], rng)
				if i < doubles {
					weights[w] = fault.CorruptFloat(fault.BitFlip{Bit: -1}, weights[w], rng)
				}
			}
			a, err := train.Accuracy(net, testSet)
			if err != nil {
				return nil, err
			}
			accPlain += a

			// Arm 2: SECDED ECC memory with the same upsets.
			restore()
			mem := fault.NewECCMemory(pristine)
			for i, w := range words {
				if err := mem.Upset(w, rng); err != nil {
					return nil, err
				}
				if i < doubles {
					if err := mem.Upset(w, rng); err != nil {
						return nil, err
					}
				}
			}
			det := 0
			for i := range weights {
				v, ok, err := mem.Read(i, pristine)
				if err != nil {
					return nil, err
				}
				if !ok {
					// Uncorrectable word: detected. Mask it to zero (the
					// activation-clipping analogue for weights).
					v = 0
					det++
				}
				weights[i] = v
			}
			a, err = train.Accuracy(net, testSet)
			if err != nil {
				return nil, err
			}
			accECC += a
			detected += float64(det)
		}
		res.Rows = append(res.Rows, WeightFaultRow{
			Upsets:              upsets,
			AccuracyUnprotected: accPlain / float64(cfg.Trials),
			AccuracyECC:         accECC / float64(cfg.Trials),
			DetectedWords:       detected / float64(cfg.Trials),
		})
	}
	restore()

	// The Section II demonstration: corrupt ONE stored weight massively and
	// run the reliable (temporal-DMR) convolution — the engine reports zero
	// failures, yet the output differs from the pristine computation.
	rngIn := rand.New(rand.NewSource(m.Config.Seed + 88))
	in := tensor.MustNew(conv1.InChannels(), 16, 16)
	in.FillUniform(rngIn, 0, 1)
	spec := reliable.ConvSpec{Stride: conv1.Stride(), Pad: conv1.Pad()}
	clean, err := reliable.NativeConv2D(in, conv1.Weight(), conv1.Bias().Data(), spec)
	if err != nil {
		return nil, err
	}
	weights[0] = fault.CorruptFloat(fault.BitFlip{Bit: 30}, weights[0], rngIn)
	ops, err := reliable.NewTemporalDMR(fault.Ideal{})
	if err != nil {
		return nil, err
	}
	engine, err := reliable.NewEngine(ops, nil)
	if err != nil {
		return nil, err
	}
	corrupted, err := reliable.Conv2D(engine, in, conv1.Weight(), conv1.Bias().Data(), spec)
	if err != nil {
		return nil, err
	}
	res.DMRMissesWeightFault = engine.Stats().Failed == 0 && !clean.Equal(corrupted)
	restore()
	return res, nil
}

// Markdown renders the study.
func (r *WeightFaultResult) Markdown() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Upsets),
			fmt.Sprintf("%.4f", row.AccuracyUnprotected),
			fmt.Sprintf("%.4f", row.AccuracyECC),
			fmt.Sprintf("%.1f", row.DetectedWords),
		})
	}
	out := fmt.Sprintf("Baseline accuracy: %.4f\n\n", r.BaselineAccuracy) +
		Markdown([]string{"Weight upsets", "Accuracy (unprotected)", "Accuracy (SECDED ECC)", "Detected words"}, rows)
	if r.DMRMissesWeightFault {
		out += "\nConfirmed: temporal-DMR execution reported ZERO failures while computing\n" +
			"with a corrupted stored weight — redundant execution cannot detect storage\n" +
			"faults, which is why weight memory needs its own (ECC) protection.\n"
	}
	return out
}
