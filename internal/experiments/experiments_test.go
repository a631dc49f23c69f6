package experiments

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/nn"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// tinyModel trains a Figure 4 model small enough to keep the
// training-based experiments fast in tests.
func tinyModel(t *testing.T) *Model {
	t.Helper()
	m, err := TrainFigure4(Figure4Config{
		Micro: nn.MicroConfig{
			InputSize: 16, Conv1Filters: 6, Conv1Kernel: 3,
			Conv2Filters: 8, Hidden: 16, Classes: 6, UseLRN: false,
		},
		PerClass: 12,
		Epochs:   6,
		LR:       0.03,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMarkdownTable(t *testing.T) {
	md := Markdown([]string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}})
	for _, want := range []string{"| A | B |", "| --- | --- |", "| 1 | 2 |", "| 3 | 4 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestASCIIPlot(t *testing.T) {
	plot := ASCIIPlot([]float64{1, 2, 3, 2, 1}, 20, 5, "abc")
	if !strings.Contains(plot, "SAX: abc") {
		t.Error("plot missing SAX word header")
	}
	if !strings.Contains(plot, "*") {
		t.Error("plot has no points")
	}
	if ASCIIPlot(nil, 20, 5, "") != "" {
		t.Error("empty series should yield empty plot")
	}
	if ASCIIPlot([]float64{1}, 1, 1, "") != "" {
		t.Error("degenerate dims should yield empty plot")
	}
	// Flat series must not divide by zero.
	if ASCIIPlot([]float64{2, 2, 2}, 10, 3, "") == "" {
		t.Error("flat series should still render")
	}
}

func TestRunTable1Scaled(t *testing.T) {
	res, err := RunTable1(Table1Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(res.Rows))
	}
	native, plain, dmr, sax := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	if native.Seconds <= 0 || plain.Seconds <= 0 || dmr.Seconds <= 0 || sax.Seconds <= 0 {
		t.Fatal("non-positive timings")
	}
	// The paper's shape: native ≪ reliable-plain < reliable-redundant.
	// The redundant/plain ratio stays below 2 because both rows share the
	// engine's per-operation bookkeeping (see RunTable1; paper: 2.15).
	if !(native.Seconds < plain.Seconds) {
		t.Errorf("native %.4fs should beat reliable-plain %.4fs", native.Seconds, plain.Seconds)
	}
	if dmr.Seconds < plain.Seconds*0.95 {
		t.Errorf("plain %.4fs should beat redundant %.4fs", plain.Seconds, dmr.Seconds)
	}
	// Wall-clock tests under parallel-suite CPU contention are noisy even
	// with best-of-N; only the ordering (with a small noise allowance) and
	// an upper sanity bound are asserted. `go run ./cmd/experiments`
	// prints the ratio on a quiet machine.
	ratio := dmr.Seconds / plain.Seconds
	if ratio < 1.0 || ratio > 4 {
		t.Errorf("redundant/plain ratio %.2f outside plausible band [1.0, 4]", ratio)
	}
	if res.Markdown() == "" {
		t.Error("empty markdown")
	}
}

func TestRunFigure3(t *testing.T) {
	res, err := RunFigure3(Figure3Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peaks != 8 {
		t.Errorf("peaks = %d, want 8 (the paper's eight corners)", res.Peaks)
	}
	if res.Class != shape.ClassOctagon {
		t.Errorf("class = %v, want octagon", res.Class)
	}
	if len(res.Series) == 0 || res.Word == "" || res.Plot == "" {
		t.Error("figure artefacts missing")
	}
	if !strings.Contains(res.Markdown(), "SAX") {
		t.Error("markdown missing SAX word")
	}

	// Seed 1 is the figure cmd/experiments prints: the word the served
	// path produces for it.
	res, err = RunFigure3(Figure3Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Word != "acbdcdabacbdcdab" || res.Class != shape.ClassOctagon || res.Peaks != 8 {
		t.Errorf("seed 1: word %s class %v peaks %d, want acbdcdabacbdcdab octagon 8",
			res.Word, res.Class, res.Peaks)
	}
}

// qualifyServed classifies img through the demo hybrid's served path and
// returns its qualifier result.
func qualifyServed(t *testing.T, img *tensor.Tensor) shape.Result {
	t.Helper()
	h, _, err := cli.DemoHybrid(img.Dim(1), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	return res.Qualifier
}

func TestRenderedShapesQualify(t *testing.T) {
	// The rendered signs must be recognisable by the deterministic shape
	// qualifier on the served path — this is the contract the hybrid
	// architecture rests on.
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		sp   gtsrb.SignShape
		want shape.Class
	}{
		{gtsrb.ShapeOctagon, shape.ClassOctagon},
		{gtsrb.ShapeTriangleDown, shape.ClassTriangle},
		{gtsrb.ShapeTriangleUp, shape.ClassTriangle},
		{gtsrb.ShapeSquare, shape.ClassSquare},
		{gtsrb.ShapeCircle, shape.ClassCircle},
	}
	for _, c := range cases {
		p := gtsrb.SignParams{
			Shape: c.sp, Fill: gtsrb.RGB{R: 0.85, G: 0.1, B: 0.1}, Size: 96,
			CenterX: 48, CenterY: 48, Radius: 38,
			Rotation: 0.1, Background: 0.1, NoiseSigma: 0.005, Brightness: 1,
		}
		img, err := gtsrb.Render(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := qualifyServed(t, img)
		if res.Class != c.want {
			t.Errorf("%v qualified as %v (peaks=%d round=%.3f dist=%.2f), want %v",
				c.sp, res.Class, res.Peaks, res.Round, res.WordDist, c.want)
		}
	}
}

func TestAngledStopSignQualifiesAsOctagon(t *testing.T) {
	// Figure 3's subject: a slightly angled stop sign still shows eight
	// corners.
	img, err := gtsrb.AngledStopSign(96, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	res := qualifyServed(t, img)
	if res.Class != shape.ClassOctagon {
		t.Errorf("angled stop sign = %v (peaks=%d round=%.3f dist=%.2f), want octagon",
			res.Class, res.Peaks, res.Round, res.WordDist)
	}
	if res.Peaks != 8 {
		t.Errorf("peaks = %d, want 8 (\"the eight corners can be clearly identified\")", res.Peaks)
	}
	if _, err := gtsrb.AngledStopSign(96, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestRunFigure4(t *testing.T) {
	res, err := RunFigure4(tinyModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("want 6 sweep rows (6 filters), got %d", len(res.Rows))
	}
	if res.BaselineAccuracy <= 1.0/6 {
		t.Errorf("baseline accuracy %.3f no better than chance — training failed", res.BaselineAccuracy)
	}
	for _, row := range res.Rows {
		if row.StopConfidence < 0 || row.StopConfidence > 1 {
			t.Errorf("confidence %v out of range", row.StopConfidence)
		}
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Errorf("accuracy %v out of range", row.Accuracy)
		}
	}
	lo, hi := res.Spread()
	if lo > hi {
		t.Error("spread inverted")
	}
	if res.Markdown() == "" {
		t.Error("empty markdown")
	}
}

func TestRunConfusionCompare(t *testing.T) {
	res, err := RunConfusionCompare(tinyModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Original == nil || res.Replaced == nil {
		t.Fatal("missing confusion matrices")
	}
	if res.MaxCellDiff < 0 || res.MaxCellDiff > 1 {
		t.Errorf("cell diff %v out of range", res.MaxCellDiff)
	}
	if res.Markdown() == "" {
		t.Error("empty markdown")
	}
}

func TestRunFreezeStudy(t *testing.T) {
	res, err := RunFreezeStudy(tinyModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 freeze rows, got %d", len(res.Rows))
	}
	byMode := map[string]FreezeStudyRow{}
	for _, row := range res.Rows {
		byMode[row.Mode.String()] = row
	}
	if byMode["hard"].Drift != 0 {
		t.Errorf("hard freeze drift = %v, want 0", byMode["hard"].Drift)
	}
	if byMode["reset-epoch"].Drift != 0 {
		t.Errorf("reset-epoch drift = %v, want 0", byMode["reset-epoch"].Drift)
	}
	if byMode["drift"].Drift <= 0 {
		t.Error("TF-style drift freeze should show nonzero drift")
	}
	if res.Markdown() == "" {
		t.Error("empty markdown")
	}
}

func TestRunRedundancyCoverage(t *testing.T) {
	rows, err := RunRedundancyCoverage(CoverageConfig{Trials: 8, TransientRate: 5e-4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 modes × 2 scenarios
		t.Fatalf("want 8 rows, got %d", len(rows))
	}
	cell := func(mode core.RedundancyMode, scenario string) CoverageRow {
		for _, r := range rows {
			if r.Mode == mode && r.Scenario == scenario {
				return r
			}
		}
		t.Fatalf("missing cell %v/%s", mode, scenario)
		return CoverageRow{}
	}
	// Section II's qualitative claims, quantified:
	// Plain execution under a permanent fault: silent corruption.
	if c := cell(core.ModePlain, "permanent-1pe"); c.Tally.SDC != c.Tally.Total() {
		t.Errorf("plain/permanent should be all SDC: %+v", c.Tally)
	}
	// Temporal DMR is DEFEATED by a permanent fault (deterministic repeat).
	if c := cell(core.ModeTemporalDMR, "permanent-1pe"); c.Tally.SDC != c.Tally.Total() {
		t.Errorf("temporal-dmr/permanent should be all SDC: %+v", c.Tally)
	}
	// Spatial DMR detects it (bucket trips: detected unrecoverable).
	if c := cell(core.ModeSpatialDMR, "permanent-1pe"); c.Tally.Detected != c.Tally.Total() {
		t.Errorf("spatial-dmr/permanent should be all detected: %+v", c.Tally)
	}
	// TMR masks it completely.
	if c := cell(core.ModeTMR, "permanent-1pe"); c.Tally.Masked != c.Tally.Total() {
		t.Errorf("tmr/permanent should be all masked: %+v", c.Tally)
	}
	// Under transients, temporal DMR's coverage beats plain's.
	pt := cell(core.ModePlain, "transient").Tally.Coverage()
	dt := cell(core.ModeTemporalDMR, "transient").Tally.Coverage()
	if dt < pt {
		t.Errorf("temporal DMR transient coverage %.3f below plain %.3f", dt, pt)
	}
	if CoverageMarkdown(rows) == "" {
		t.Error("empty markdown")
	}
}

func TestRunRollbackAblation(t *testing.T) {
	rows, err := RunRollbackAblation(RollbackConfig{
		Trials: 6, Rates: []float64{1e-4, 2e-3}, MaxUnitAttempts: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 strategies × 2 rates
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	cell := func(strategy string, rate float64) RollbackRow {
		for _, r := range rows {
			if r.Strategy == strategy && r.Rate == rate {
				return r
			}
		}
		t.Fatalf("missing cell %s/%v", strategy, rate)
		return RollbackRow{}
	}
	// At the high fault rate, op-level rollback still covers everything
	// (every trial ends correct or detected), while unprotected execution
	// produces silent corruptions.
	op := cell("op", 2e-3)
	if op.Tally.SDC != 0 {
		t.Errorf("op-level rollback produced %d SDCs", op.Tally.SDC)
	}
	none := cell("none", 2e-3)
	if none.Tally.SDC == 0 {
		t.Error("unprotected execution at rate 2e-3 should corrupt silently")
	}
	// Work accounting: op-level DMR costs ≈ 2× a single pass; unit-level
	// costs ≥ 2× and grows with rollbacks; unprotected costs 1×.
	if op.WorkFactor < 1.9 || op.WorkFactor > 3 {
		t.Errorf("op-level work factor %.3f outside [1.9, 3]", op.WorkFactor)
	}
	unit := cell("unit", 2e-3)
	if unit.WorkFactor < 2 {
		t.Errorf("unit-level work factor %.3f below 2", unit.WorkFactor)
	}
	if none.WorkFactor != 1 {
		t.Errorf("unprotected work factor %.3f != 1", none.WorkFactor)
	}
	if RollbackMarkdown(rows) == "" {
		t.Error("empty markdown")
	}
}

func TestRunWeightFaultStudy(t *testing.T) {
	m := tinyModel(t)
	res, err := RunWeightFaultStudy(m, WeightFaultConfig{
		UpsetCounts: []int{2, 32},
		Trials:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(res.Rows))
	}
	if res.BaselineAccuracy <= 1.0/6 {
		t.Errorf("baseline accuracy %.3f no better than chance", res.BaselineAccuracy)
	}
	for _, row := range res.Rows {
		if row.AccuracyECC < row.AccuracyUnprotected-0.05 {
			t.Errorf("upsets=%d: ECC accuracy %.3f should not trail unprotected %.3f",
				row.Upsets, row.AccuracyECC, row.AccuracyUnprotected)
		}
	}
	// ECC with masking should hold accuracy near baseline even at the
	// heavier upset count.
	heavy := res.Rows[1]
	if heavy.AccuracyECC < res.BaselineAccuracy-0.15 {
		t.Errorf("ECC accuracy %.3f collapsed from baseline %.3f", heavy.AccuracyECC, res.BaselineAccuracy)
	}
	if !res.DMRMissesWeightFault {
		t.Error("the DMR-misses-storage-fault demonstration did not hold")
	}
	if res.Markdown() == "" {
		t.Error("empty markdown")
	}
	// Excessive upsets are rejected.
	if _, err := RunWeightFaultStudy(m, WeightFaultConfig{
		UpsetCounts: []int{1 << 30},
		Trials:      1,
	}); err == nil {
		t.Error("absurd upset count should fail")
	}
}

// TestSharedModelMatchesOwnModel: every study that reads the Figure 4
// model restores what it mutates, so on one shared model, run in either
// order after the others, each prints the bytes it prints on a model
// trained for it alone.
func TestSharedModelMatchesOwnModel(t *testing.T) {
	studies := []struct {
		name string
		run  func(*Model) (string, error)
	}{
		{"figure4", func(m *Model) (string, error) { return markdownOf(RunFigure4(m)) }},
		{"intext", func(m *Model) (string, error) { return markdownOf(RunConfusionCompare(m)) }},
		{"freeze", func(m *Model) (string, error) { return markdownOf(RunFreezeStudy(m)) }},
		{"weights", func(m *Model) (string, error) {
			return markdownOf(RunWeightFaultStudy(m, WeightFaultConfig{UpsetCounts: []int{2, 32}, Trials: 3}))
		}},
	}
	alone := make([]string, len(studies))
	for i, s := range studies {
		md, err := s.run(tinyModel(t))
		if err != nil {
			t.Fatalf("%s alone: %v", s.name, err)
		}
		alone[i] = md
	}
	shared := tinyModel(t)
	for pass, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		for _, i := range order {
			md, err := studies[i].run(shared)
			if err != nil {
				t.Fatalf("%s shared: %v", studies[i].name, err)
			}
			if md != alone[i] {
				t.Errorf("pass %d: %s on the shared model differs from its own model:\n%s\nvs\n%s", pass, studies[i].name, md, alone[i])
			}
		}
	}
}

func markdownOf[R interface{ Markdown() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Markdown(), nil
}

// TestRunQualifierTable: every (size, render) row, every sign counted once
// per seed, the clean 64 px renders (the qualifier's easy case) all named
// correctly with no false octagon, and the summary rendered for both seeds.
func TestRunQualifierTable(t *testing.T) {
	const perClass = 3
	res, err := RunQualifierTable(QualifierConfig{PerClass: perClass})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), len(qualifierSizes)*len(qualifierRenders); got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	classes := gtsrb.StandardClasses()
	for _, row := range res.Rows {
		for si := 0; si < 2; si++ {
			for c := range classes {
				n := 0
				for _, k := range row.Counts[si][c] {
					n += k
				}
				if n != perClass {
					t.Errorf("%d px %s seed #%d class %d: %d verdicts, want %d", row.Size, row.Render, si, c, n, perClass)
				}
			}
			if row.Size != 64 || row.Render != "clean" {
				continue
			}
			for c, k := range row.Correct(si) {
				if k != perClass {
					t.Errorf("64 px clean seed #%d: class %s %d of %d correct", si, classes[c].Name, k, perClass)
				}
			}
			if f := row.FalseOctagons(si); f != 0 {
				t.Errorf("64 px clean seed #%d: %d false octagons", si, f)
			}
		}
	}
	md := res.Markdown()
	for _, want := range []string{"seed 11", "seed 12", "| 64 | clean | 3 / 3 / 3 / 3 / 3 / 3 | 0 |", "32 px, +tilt:"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown lacks %q:\n%s", want, md)
		}
	}
}
