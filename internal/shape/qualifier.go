package shape

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/sax"
	"repro/internal/tensor"
)

// Class is the deterministic shape taxonomy of the qualifier. A diamond
// (rotated square) is radially indistinguishable from a square, so both map
// to ClassSquare; the safety argument of the paper only needs the octagon to
// be uniquely identifiable.
type Class int

// Shape classes. Start at 1 so the zero value is distinguishable from a
// deliberate "unknown" verdict.
const (
	ClassUnknown Class = iota + 1
	ClassCircle
	ClassTriangle
	ClassSquare
	ClassOctagon
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassUnknown:
		return "unknown"
	case ClassCircle:
		return "circle"
	case ClassTriangle:
		return "triangle"
	case ClassSquare:
		return "square"
	case ClassOctagon:
		return "octagon"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// PolygonRadialSeries returns the analytic centroid-to-edge distance series
// of a regular k-gon with circumradius r, sampled at n equally spaced
// angles with the given angular offset (radians). It is the ground-truth
// template generator for the qualifier and for tests.
func PolygonRadialSeries(k, n int, r, offset float64) ([]float64, error) {
	if k < 3 {
		return nil, fmt.Errorf("shape: polygon needs k >= 3, got %d", k)
	}
	if n < 4 {
		return nil, fmt.Errorf("shape: series needs n >= 4, got %d", n)
	}
	if r <= 0 {
		return nil, fmt.Errorf("shape: radius %v must be positive", r)
	}
	series := make([]float64, n)
	sector := 2 * math.Pi / float64(k)
	apothem := r * math.Cos(math.Pi/float64(k))
	for i := 0; i < n; i++ {
		theta := 2*math.Pi*float64(i)/float64(n) + offset
		// Angle within the sector, measured from the sector's mid-edge.
		a := math.Mod(theta, sector)
		if a < 0 {
			a += sector
		}
		a -= sector / 2
		series[i] = apothem / math.Cos(a)
	}
	return series, nil
}

// CircleRadialSeries returns the constant series of a circle of radius r.
func CircleRadialSeries(n int, r float64) ([]float64, error) {
	if n < 4 {
		return nil, fmt.Errorf("shape: series needs n >= 4, got %d", n)
	}
	if r <= 0 {
		return nil, fmt.Errorf("shape: radius %v must be positive", r)
	}
	series := make([]float64, n)
	for i := range series {
		series[i] = r
	}
	return series, nil
}

// The qualifier's parameters.
const (
	// seriesLen is the length of the radial time series (Figure 3 uses a
	// series long enough to show eight clear corners).
	seriesLen = 128
	// wordLen and alphabet parameterise the SAX encoder.
	wordLen  = 16
	alphabet = 4
	// smoothWindow is the circular moving-average window applied to the
	// series before corner counting (odd).
	smoothWindow = 3
	// roundness is the (max−min)/mean ratio below which the blob is
	// declared a circle. A regular octagon's radial series has
	// (max−min)/mean ≈ 0.08, so the circle cut-off must sit well below it;
	// rasterised discs measure ≈ 0.02–0.03 after smoothing.
	roundness = 0.04
	// peakFraction scales peak prominence: a corner must rise at least
	// peakFraction × (max − mean) above the mean.
	peakFraction = 0.12
	// maxWordDist is the maximum rotation-invariant MINDIST to a class
	// template for the SAX confirmation to pass. MINDIST charges nothing
	// for adjacent symbols, which makes the gate robust to PAA phase
	// aliasing while still rejecting grossly different series.
	maxWordDist = 3.0
)

// Result is the qualifier's verdict on one image. It retains the
// intermediate artefacts (series, word, peaks) because they are exactly what
// a certification reviewer would want to inspect — and what Figure 3 plots.
type Result struct {
	Class    Class
	Peaks    int
	Series   []float64
	Word     sax.Word
	WordDist float64 // rotation-invariant MINDIST to the class template
	Area     int     // pixels in the segmented blob
	Round    float64 // (max−min)/mean of the smoothed series
}

// Qualifier is the reliably executable shape-recognition block of Figure 2:
// a bounded, deterministic surrogate function from the edge map of conv1's
// Sobel channels to a shape class. QualifyEdgeMap is its one entry point.
// Its only mutable state is a pool of per-call scratch, so it is safe for
// concurrent use.
type Qualifier struct {
	enc       *sax.Encoder
	templates map[Class]sax.Word
	scratch   sync.Pool // *qualifyScratch
}

// qualifyScratch holds one QualifyEdgeMap call's buffers: the normalised
// edge map, the bit-mask planes, the contour, the raw radial series with
// its filled flags, and the peak list. Slices grow to the largest frame
// seen and are reused across calls.
type qualifyScratch struct {
	norm    []float32
	words   []uint64
	contour []Point
	raw     [seriesLen]float64
	filled  [seriesLen]bool
	peaks   [seriesLen]int
}

// NewQualifier builds a qualifier with analytic templates for the circle,
// triangle, square and octagon classes.
func NewQualifier() (*Qualifier, error) {
	enc, err := sax.NewEncoder(wordLen, alphabet)
	if err != nil {
		return nil, fmt.Errorf("shape: qualifier encoder: %w", err)
	}
	q := &Qualifier{enc: enc, templates: make(map[Class]sax.Word, 4)}
	q.scratch.New = func() any { return new(qualifyScratch) }
	for _, tc := range []struct {
		class Class
		k     int
	}{
		{ClassTriangle, 3}, {ClassSquare, 4}, {ClassOctagon, 8},
	} {
		series, err := PolygonRadialSeries(tc.k, seriesLen, 1, 0)
		if err != nil {
			return nil, err
		}
		w, err := enc.Encode(series)
		if err != nil {
			return nil, fmt.Errorf("shape: template %v: %w", tc.class, err)
		}
		q.templates[tc.class] = w
	}
	// Circle template: flat series encodes to the mid symbol everywhere.
	circle, err := CircleRadialSeries(seriesLen, 1)
	if err != nil {
		return nil, err
	}
	w, err := enc.Encode(circle)
	if err != nil {
		return nil, err
	}
	q.templates[ClassCircle] = w
	return q, nil
}

// classifySeries runs the decision procedure on a raw radial series:
// smooth, measure roundness, count corners, then confirm with the SAX
// template, building the peak list in peakBuf (nil allocates one). The
// verdict is conservative: any disagreement yields ClassUnknown — for a
// safety qualifier a false "unknown" merely withholds qualification,
// whereas a false positive would defeat the guarantee.
func (q *Qualifier) classifySeries(series []float64, peakBuf []int) (Result, error) {
	var res Result
	res.Class = ClassUnknown
	if len(series) != seriesLen {
		return res, fmt.Errorf("shape: series length %d != %d", len(series), seriesLen)
	}
	sm, err := SmoothCircular(series, smoothWindow)
	if err != nil {
		return res, err
	}
	res.Series = sm
	word, err := q.enc.Encode(sm)
	if err != nil {
		return res, err
	}
	res.Word = word

	mn, mx, mean := sm[0], sm[0], 0.0
	for _, v := range sm {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		mean += v
	}
	mean /= float64(len(sm))
	if mean <= 0 {
		return res, fmt.Errorf("shape: non-positive mean radius")
	}
	res.Round = (mx - mn) / mean
	if res.Round < roundness {
		res.Class = ClassCircle
		res.Peaks = 0
		return res, nil
	}

	prom := peakFraction * (mx - mean)
	spacing := seriesLen / 20 // octagon corners are seriesLen/8 apart
	peaks, err := countPeaks(sm, prom, spacing, peakBuf)
	if err != nil {
		return res, err
	}
	res.Peaks = peaks
	candidate := ClassUnknown
	switch peaks {
	case 3:
		candidate = ClassTriangle
	case 4:
		candidate = ClassSquare
	case 8:
		candidate = ClassOctagon
	}
	if candidate == ClassUnknown {
		return res, nil
	}
	// SAX confirmation: the cheap string comparison of the paper.
	dist, err := q.enc.MinRotationMinDist(word, q.templates[candidate], seriesLen)
	if err != nil {
		return res, err
	}
	res.WordDist = dist
	if dist <= maxWordDist {
		res.Class = candidate
	}
	return res, nil
}

// QualifyEdgeMap runs the qualifier on an edge-magnitude map (the output of
// the Sobel-initialised conv1 channels): the edge map is thresholded, the
// ring is closed with one dilation, its interior filled, and the resulting
// solid blob classified (largest component, centroid, boundary trace,
// radial series, classifySeries). This is the Figure 2 data path, where the
// qualifier consumes the reliably executed convolution output rather than
// the raw image; the morphological closing makes it robust to small breaks
// in the edge ring. The masks are bit-packed (see bitMask) and every buffer
// but the Result's series and word comes from pooled scratch.
func (q *Qualifier) QualifyEdgeMap(edges *tensor.Tensor) (Result, error) {
	var res Result
	res.Class = ClassUnknown
	if edges.Rank() != 2 {
		return res, fmt.Errorf("shape: edge map must be rank 2, got rank %d", edges.Rank())
	}
	sc := q.scratch.Get().(*qualifyScratch)
	defer q.scratch.Put(sc)
	// Normalise to [0,1] before Otsu, and zero a small border margin:
	// zero-padded convolutions produce strong spurious gradients along the
	// frame, which would otherwise survive thresholding, enclose the frame
	// after closing, and flood the fill.
	const margin = 2
	h, w := edges.Dim(0), edges.Dim(1)
	scale := float32(1)
	if mx := edges.Max(); mx > 0 {
		scale = 1 / mx
	}
	sc.norm = slices.Grow(sc.norm[:0], h*w)[:h*w]
	norm := sc.norm
	for y := 0; y < h; y++ {
		for x, v := range edges.Data()[y*w : (y+1)*w] {
			norm[y*w+x] = v * scale
			if y < margin || y >= h-margin || x < margin || x >= w-margin {
				norm[y*w+x] = 0
			}
		}
	}
	thresh, err := otsuThreshold(norm)
	if err != nil {
		return res, err
	}
	// Five mask planes and two reversed rows of scratch.
	m := newBitMask(h, w)
	n := h * m.stride
	sc.words = slices.Grow(sc.words[:0], 5*n+2*m.stride)[:5*n+2*m.stride]
	bin, closed, work, blob := sc.words[:n], sc.words[n:2*n], sc.words[2*n:3*n], sc.words[3*n:4*n]
	tmp, rev := sc.words[4*n:5*n], sc.words[5*n:]
	clear(bin)
	for y := 0; y < h; y++ {
		for x, v := range norm[y*w : (y+1)*w] {
			if v > thresh {
				bin[y*m.stride+x>>6] |= 1 << uint(x&63)
			}
		}
	}
	m.morph3(closed, bin, tmp, true)
	m.fillHoles(bin, closed, work, blob, rev)
	// Undo the dilation so the blob geometry matches the true outline.
	m.morph3(closed, bin, tmp, false)
	blob, area := m.largest(closed, work, blob, rev)
	res.Area = area
	if area < 16 {
		return res, nil // nothing segmentable: withhold qualification
	}
	cx, cy := m.centroid(blob, area)
	sc.contour, err = m.trace(blob, sc.contour[:0])
	if err != nil {
		return res, err
	}
	if err := radialSeries(sc.contour, cx, cy, sc.raw[:], sc.filled[:]); err != nil {
		return res, err
	}
	out, err := q.classifySeries(sc.raw[:], sc.peaks[:0])
	out.Area = area
	return out, err
}
