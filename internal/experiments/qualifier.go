package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cli"
	"repro/internal/gtsrb"
	"repro/internal/shape"
)

// The qualifier measured as a detector: how often its verdict names the
// rendered sign's true shape, and how often it confirms an octagon that is
// not there (the false confirmation the hybrid guarantee cannot absorb).
// Measurement only: no verdict or threshold depends on it.

// Qualifier seeds: thresholds may be designed against the first; the
// second is held out and printed beside it.
const (
	qualifierDesignSeed  = 11
	qualifierHeldOutSeed = 12
)

// qualifierSizes are the rendered image sides: the micro net's 32 px and
// 64 px, whose conv1 edge maps are 28 and 60 px.
var qualifierSizes = []int{32, 64}

// qualifierVerdicts is the verdict column order of the confusion tables.
var qualifierVerdicts = []shape.Class{
	shape.ClassOctagon, shape.ClassTriangle, shape.ClassCircle, shape.ClassSquare, shape.ClassUnknown,
}

// qualifierRender is one rendering condition: the clean render with at
// most one nuisance put back, or all of them (the dataset default).
type qualifierRender struct {
	name                                 string
	clutter, rotation, tilt, scaleCentre bool
}

var qualifierRenders = []qualifierRender{
	{name: "clean"},
	{name: "+clutter", clutter: true},
	{name: "+rotation", rotation: true},
	{name: "+tilt", tilt: true},
	{name: "+scale/centre jitter", scaleCentre: true},
	{name: "default", clutter: true, rotation: true, tilt: true, scaleCentre: true},
}

// QualifierConfig sizes the qualifier confusion table.
type QualifierConfig struct {
	// PerClass is the number of signs per class, per render and seed
	// (default 40).
	PerClass int
}

// QualifierRow is one (image size, render) condition: per seed (design,
// held-out), per class (StandardClasses order), the count of each verdict
// (qualifierVerdicts order).
type QualifierRow struct {
	Size   int
	Render string
	Counts [2][][]int
}

// QualifierResult is the confusion table over every condition.
type QualifierResult struct {
	PerClass int
	Rows     []QualifierRow
}

// trueShape is the qualifier class a rendered sign shape should get.
func trueShape(s gtsrb.SignShape) shape.Class {
	switch s {
	case gtsrb.ShapeOctagon:
		return shape.ClassOctagon
	case gtsrb.ShapeTriangleDown, gtsrb.ShapeTriangleUp:
		return shape.ClassTriangle
	case gtsrb.ShapeCircle:
		return shape.ClassCircle
	case gtsrb.ShapeSquare:
		return shape.ClassSquare
	}
	return shape.ClassUnknown
}

// verdictIndex is c's column in qualifierVerdicts.
func verdictIndex(c shape.Class) int {
	for i, v := range qualifierVerdicts {
		if v == c {
			return i
		}
	}
	return len(qualifierVerdicts) - 1 // unknown
}

// RunQualifierTable classifies PerClass signs of each class under every
// render, at 32 and 64 px, for the design and the held-out seed, through
// the demo hybrid's served path (cli.DemoHybrid, Classify): conv1's Sobel
// edge map is all the qualifier reads, so the demo's random CNN weights do
// not reach the verdict. Each sign draws its parameters and noise once; the
// renders differ only in which drawn nuisances they keep — the clean render
// is upright, centred at the middle scale, with no tilt and no clutter
// (background, brightness and pixel noise stay as drawn in every render).
func RunQualifierTable(cfg QualifierConfig) (*QualifierResult, error) {
	if cfg.PerClass == 0 {
		cfg.PerClass = 40
	}
	res := &QualifierResult{PerClass: cfg.PerClass}
	classes := gtsrb.StandardClasses()
	for _, size := range qualifierSizes {
		h, _, err := cli.DemoHybrid(size, 8, 1)
		if err != nil {
			return nil, err
		}
		gcfg, err := gtsrb.Config{Size: size}.Normalize()
		if err != nil {
			return nil, err
		}
		half := float64(size) / 2
		rows := make([]QualifierRow, len(qualifierRenders))
		for i, r := range qualifierRenders {
			rows[i] = QualifierRow{Size: size, Render: r.name}
		}
		for si, seed := range []int64{qualifierDesignSeed, qualifierHeldOutSeed} {
			rng := rand.New(rand.NewSource(seed))
			for i := range rows {
				rows[i].Counts[si] = make([][]int, len(classes))
				for c := range classes {
					rows[i].Counts[si][c] = make([]int, len(qualifierVerdicts))
				}
			}
			for c, spec := range classes {
				for n := 0; n < cfg.PerClass; n++ {
					drawn := gtsrb.RandomParams(gcfg, spec, rng)
					noise := rng.Int63()
					for i, r := range qualifierRenders {
						p := drawn
						if !r.scaleCentre {
							p.CenterX, p.CenterY = half, half
							p.Radius = (gcfg.ScaleMin + gcfg.ScaleMax) / 2 * half
						}
						if !r.rotation {
							p.Rotation = 0
						}
						if !r.tilt {
							p.Tilt = 0
						}
						if !r.clutter {
							p.Clutter = 0
						}
						img, err := gtsrb.Render(p, rand.New(rand.NewSource(noise)))
						if err != nil {
							return nil, err
						}
						out, err := h.Classify(img)
						if err != nil {
							return nil, err
						}
						rows[i].Counts[si][c][verdictIndex(out.Qualifier.Class)]++
					}
				}
			}
		}
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Correct returns, for seed index si (0 design, 1 held-out), the number of
// signs of each class whose verdict is the true shape.
func (r QualifierRow) Correct(si int) []int {
	classes := gtsrb.StandardClasses()
	out := make([]int, len(classes))
	for c, spec := range classes {
		out[c] = r.Counts[si][c][verdictIndex(trueShape(spec.Shape))]
	}
	return out
}

// FalseOctagons returns, for seed index si, how many non-stop signs the
// qualifier confirmed as an octagon.
func (r QualifierRow) FalseOctagons(si int) int {
	n := 0
	for c, spec := range gtsrb.StandardClasses() {
		if trueShape(spec.Shape) != shape.ClassOctagon {
			n += r.Counts[si][c][verdictIndex(shape.ClassOctagon)]
		}
	}
	return n
}

// joinInts renders counts as "a / b / c".
func joinInts(v []int, sep string) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprint(x)
	}
	return strings.Join(s, sep)
}

// Markdown renders the summary table (correct per class and false octagons,
// design seed beside held-out seed) and then, per condition, the full
// true shape × verdict confusion.
func (r *QualifierResult) Markdown() string {
	var b strings.Builder
	classes := gtsrb.StandardClasses()
	names := make([]string, len(classes))
	for c, spec := range classes {
		names[c] = spec.Name
	}
	nonStop := 0
	for _, spec := range classes {
		if trueShape(spec.Shape) != shape.ClassOctagon {
			nonStop += r.PerClass
		}
	}
	fmt.Fprintf(&b, "%d signs per class and render; design seed %d beside held-out seed %d. "+
		"Correct verdicts per class (%s), then false octagons among the %d non-stop signs.\n\n",
		r.PerClass, qualifierDesignSeed, qualifierHeldOutSeed, strings.Join(names, " / "), nonStop)
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.Size), row.Render,
			joinInts(row.Correct(0), " / "), fmt.Sprint(row.FalseOctagons(0)),
			joinInts(row.Correct(1), " / "), fmt.Sprint(row.FalseOctagons(1)),
		})
	}
	b.WriteString(Markdown([]string{"px", "render",
		fmt.Sprintf("correct, seed %d", qualifierDesignSeed), "false oct.",
		fmt.Sprintf("correct, seed %d", qualifierHeldOutSeed), "false oct."}, rows))
	verdicts := make([]string, len(qualifierVerdicts))
	for i, v := range qualifierVerdicts {
		verdicts[i] = v.String()
	}
	fmt.Fprintf(&b, "\nVerdict counts per true class, in the order %s.\n", strings.Join(verdicts, " / "))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%d px, %s:\n\n", row.Size, row.Render)
		var cells [][]string
		for c, spec := range classes {
			cells = append(cells, []string{
				fmt.Sprintf("%s (%v)", spec.Name, trueShape(spec.Shape)),
				joinInts(row.Counts[0][c], " "), joinInts(row.Counts[1][c], " "),
			})
		}
		b.WriteString(Markdown([]string{"class (true shape)",
			fmt.Sprintf("seed %d", qualifierDesignSeed), fmt.Sprintf("seed %d", qualifierHeldOutSeed)}, cells))
	}
	return b.String()
}
