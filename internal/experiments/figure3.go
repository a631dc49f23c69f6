package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cli"
	"repro/internal/gtsrb"
	"repro/internal/shape"
	"repro/internal/tensor"
)

// figure3Size is the rendered sign size in pixels.
const figure3Size = 96

// Figure3Config seeds the Figure 3 reproduction.
type Figure3Config struct {
	// Seed drives rendering noise.
	Seed int64
}

// Figure3Result is the reproduced figure: the centroid-to-edge time series
// of a slightly angled stop sign, its SAX word, and the corner count.
type Figure3Result struct {
	Image  *tensor.Tensor
	Series []float64
	Word   string
	Peaks  int
	Class  shape.Class
	Plot   string
}

// RunFigure3 regenerates Figure 3: "the time-series generated from a
// real-world, slightly angled stop sign. The eight corners can be clearly
// identified. The SAX word is visible above the time-series plot."
// The sign is classified through the served path, HybridNetwork.Classify on
// the demo hybrid, and the figure is its qualifier result. Only conv1's
// Sobel pair feeds the qualifier, so the demo's random CNN weights cannot
// change the figure.
func RunFigure3(cfg Figure3Config) (*Figure3Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	img, err := gtsrb.AngledStopSign(figure3Size, rng)
	if err != nil {
		return nil, err
	}
	h, _, err := cli.DemoHybrid(figure3Size, 8, cfg.Seed)
	if err != nil {
		return nil, err
	}
	classified, err := h.Classify(img)
	if err != nil {
		return nil, err
	}
	res := classified.Qualifier
	out := &Figure3Result{
		Image:  img,
		Series: res.Series,
		Word:   res.Word.String(),
		Peaks:  res.Peaks,
		Class:  res.Class,
	}
	out.Plot = ASCIIPlot(res.Series, 64, 10, out.Word)
	return out, nil
}

// Markdown renders the result.
func (r *Figure3Result) Markdown() string {
	return fmt.Sprintf("Figure 3 — radial time series of a slightly angled stop sign\n\n"+
		"```\n%s```\n\ncorners identified: %d (paper: \"the eight corners can be clearly identified\")\n"+
		"qualifier class: %v\n", r.Plot, r.Peaks, r.Class)
}
