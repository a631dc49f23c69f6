package gtsrb

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// ClassSpec ties a label to its geometry and colour. The six classes mirror
// the sign families of GTSRB that the paper's running example draws on; the
// "Stop" class is the safety-critical one, and "Parking" is the paper's
// example of a classification that needs no qualification.
type ClassSpec struct {
	Name  string
	Shape SignShape
	Fill  RGB
}

// StandardClasses returns the six-class taxonomy used by all experiments.
// Index 0 is the "Stop" class throughout the repository.
func StandardClasses() []ClassSpec {
	return []ClassSpec{
		{Name: "stop", Shape: ShapeOctagon, Fill: RGB{0.85, 0.10, 0.12}},
		{Name: "yield", Shape: ShapeTriangleDown, Fill: RGB{0.90, 0.25, 0.20}},
		{Name: "prohibition", Shape: ShapeCircle, Fill: RGB{0.80, 0.15, 0.25}},
		{Name: "parking", Shape: ShapeSquare, Fill: RGB{0.15, 0.25, 0.85}},
		{Name: "mandatory", Shape: ShapeCircle, Fill: RGB{0.10, 0.35, 0.90}},
		{Name: "warning", Shape: ShapeTriangleUp, Fill: RGB{0.90, 0.80, 0.15}},
	}
}

// StopClass is the label index of the "Stop" sign in StandardClasses.
const StopClass = 0

// Example is one labelled image.
type Example struct {
	Image *tensor.Tensor // 3×Size×Size, values in [0,1]
	Label int
}

// Dataset is a labelled image collection.
type Dataset struct {
	Examples []Example
	Classes  []ClassSpec
	Size     int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// NumClasses returns the number of classes.
func (d *Dataset) NumClasses() int { return len(d.Classes) }

// Config controls dataset generation. Zero fields take the documented
// defaults via Normalize.
type Config struct {
	// Size is the square image side (default 32).
	Size int
	// PerClass is the number of examples per class (default 40).
	PerClass int
	// RotJitter is the maximum |in-plane rotation| in radians
	// (default 0.20 ≈ 11°).
	RotJitter float64
	// TiltMax is the maximum out-of-plane tilt in radians
	// (default 0.35 ≈ 20°).
	TiltMax float64
	// ScaleMin and ScaleMax bound the circumradius as a fraction of
	// Size/2 (defaults 0.55 and 0.85).
	ScaleMin, ScaleMax float64
	// CenterJitter is the maximum centre offset as a fraction of Size
	// (default 0.06).
	CenterJitter float64
	// NoiseSigma is the per-pixel Gaussian noise std (default 0.02).
	NoiseSigma float32
	// Clutter is the number of background rectangles (default 3).
	Clutter int
}

// Normalize fills zero fields with defaults and validates the rest.
func (c Config) Normalize() (Config, error) {
	if c.Size == 0 {
		c.Size = 32
	}
	if c.PerClass == 0 {
		c.PerClass = 40
	}
	if c.RotJitter == 0 {
		c.RotJitter = 0.20
	}
	if c.TiltMax == 0 {
		c.TiltMax = 0.35
	}
	if c.ScaleMin == 0 {
		c.ScaleMin = 0.55
	}
	if c.ScaleMax == 0 {
		c.ScaleMax = 0.85
	}
	if c.CenterJitter == 0 {
		c.CenterJitter = 0.06
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.02
	}
	if c.Clutter == 0 {
		c.Clutter = 3
	}
	if c.Size < 8 {
		return c, fmt.Errorf("gtsrb: size %d too small", c.Size)
	}
	if c.PerClass < 1 {
		return c, fmt.Errorf("gtsrb: per-class count %d must be >= 1", c.PerClass)
	}
	if c.ScaleMin <= 0 || c.ScaleMax < c.ScaleMin || c.ScaleMax > 1 {
		return c, fmt.Errorf("gtsrb: scale range [%v,%v] invalid", c.ScaleMin, c.ScaleMax)
	}
	return c, nil
}

// RandomParams draws one sign's rendering parameters for the given class.
func RandomParams(cfg Config, spec ClassSpec, rng *rand.Rand) SignParams {
	half := float64(cfg.Size) / 2
	scale := cfg.ScaleMin + (cfg.ScaleMax-cfg.ScaleMin)*rng.Float64()
	return SignParams{
		Shape:      spec.Shape,
		Fill:       spec.Fill,
		Size:       cfg.Size,
		CenterX:    half + (2*rng.Float64()-1)*cfg.CenterJitter*float64(cfg.Size),
		CenterY:    half + (2*rng.Float64()-1)*cfg.CenterJitter*float64(cfg.Size),
		Radius:     scale * half,
		Rotation:   (2*rng.Float64() - 1) * cfg.RotJitter,
		Tilt:       rng.Float64() * cfg.TiltMax,
		Background: 0.05 + 0.20*rng.Float32(),
		NoiseSigma: cfg.NoiseSigma,
		Brightness: 0.85 + 0.30*rng.Float32(),
		Clutter:    cfg.Clutter,
	}
}

// Generate produces a balanced dataset with cfg.PerClass examples of each
// standard class, deterministically from rng.
func Generate(cfg Config, rng *rand.Rand) (*Dataset, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("gtsrb: generate needs an rng")
	}
	classes := StandardClasses()
	ds := &Dataset{
		Examples: make([]Example, 0, cfg.PerClass*len(classes)),
		Classes:  classes,
		Size:     cfg.Size,
	}
	for label, spec := range classes {
		for i := 0; i < cfg.PerClass; i++ {
			img, err := Render(RandomParams(cfg, spec, rng), rng)
			if err != nil {
				return nil, fmt.Errorf("gtsrb: render class %q example %d: %w", spec.Name, i, err)
			}
			ds.Examples = append(ds.Examples, Example{Image: img, Label: label})
		}
	}
	ds.Shuffle(rng)
	return ds, nil
}

// Shuffle permutes the examples in place.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.Examples), func(i, j int) {
		d.Examples[i], d.Examples[j] = d.Examples[j], d.Examples[i]
	})
}

// Split partitions the dataset into train and test parts with the given
// train fraction (0 < frac < 1). The split preserves order (shuffle first).
func (d *Dataset) Split(frac float64) (train, test *Dataset, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("gtsrb: split fraction %v out of (0,1)", frac)
	}
	n := int(math.Round(frac * float64(len(d.Examples))))
	if n < 1 || n >= len(d.Examples) {
		return nil, nil, fmt.Errorf("gtsrb: split of %d examples at %v leaves an empty part",
			len(d.Examples), frac)
	}
	train = &Dataset{Examples: d.Examples[:n], Classes: d.Classes, Size: d.Size}
	test = &Dataset{Examples: d.Examples[n:], Classes: d.Classes, Size: d.Size}
	return train, test, nil
}

// AngledStopSign renders the Figure 3 subject: a slightly angled (rotated
// and tilted) stop sign at the given image size with mild noise.
func AngledStopSign(size int, rng *rand.Rand) (*tensor.Tensor, error) {
	if rng == nil {
		return nil, fmt.Errorf("gtsrb: angled stop sign needs an rng")
	}
	spec := StandardClasses()[StopClass]
	half := float64(size) / 2
	p := SignParams{
		Shape:      spec.Shape,
		Fill:       spec.Fill,
		Size:       size,
		CenterX:    half,
		CenterY:    half,
		Radius:     0.8 * half,
		Rotation:   0.17, // ~10°: "slightly angled"
		Tilt:       0.30, // ~17° out-of-plane
		Background: 0.10,
		NoiseSigma: 0.01,
		Brightness: 1,
		Clutter:    2,
	}
	return Render(p, rng)
}
