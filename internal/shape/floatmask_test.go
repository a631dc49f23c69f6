package shape

import (
	"fmt"

	"repro/internal/tensor"
)

// The float-mask path: the qualifier's mask steps as they ran before the
// masks were bit-packed, one float32 per pixel read through Tensor.At. They
// are the oracle the bit-mask steps of QualifyEdgeMap are checked against,
// bit for bit, in oracle_test.go.

// Binarize thresholds a grayscale image: pixels > thresh become 1, the rest
// 0.
func Binarize(gray *tensor.Tensor, thresh float32) (*tensor.Tensor, error) {
	if gray.Rank() != 2 {
		return nil, fmt.Errorf("shape: binarize needs rank-2 image, got rank %d", gray.Rank())
	}
	out := gray.Clone()
	out.Apply(func(v float32) float32 {
		if v > thresh {
			return 1
		}
		return 0
	})
	return out, nil
}

// OtsuThreshold is otsuThreshold on a rank-2 image.
func OtsuThreshold(gray *tensor.Tensor) (float32, error) {
	if gray.Rank() != 2 {
		return 0, fmt.Errorf("shape: otsu needs rank-2 image, got rank %d", gray.Rank())
	}
	return otsuThreshold(gray.Data())
}

// Dilate returns the binary mask dilated by a 3×3 structuring element
// applied r times. Dilation closes small gaps in edge rings before hole
// filling.
func Dilate(mask *tensor.Tensor, r int) (*tensor.Tensor, error) {
	return morph(mask, r, true)
}

// Erode returns the binary mask eroded by a 3×3 structuring element applied
// r times (the inverse step of a morphological closing).
func Erode(mask *tensor.Tensor, r int) (*tensor.Tensor, error) {
	return morph(mask, r, false)
}

func morph(mask *tensor.Tensor, r int, dilate bool) (*tensor.Tensor, error) {
	if mask.Rank() != 2 {
		return nil, fmt.Errorf("shape: morphology needs rank-2 mask, got rank %d", mask.Rank())
	}
	if r < 0 {
		return nil, fmt.Errorf("shape: morphology radius %d must be >= 0", r)
	}
	cur := mask.Clone()
	h, w := mask.Dim(0), mask.Dim(1)
	for it := 0; it < r; it++ {
		next := tensor.MustNew(h, w)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				hit := !dilate // erode: assume kept until a zero neighbour
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						ny, nx := y+dy, x+dx
						inside := ny >= 0 && ny < h && nx >= 0 && nx < w
						var v float32
						if inside {
							v = cur.At(ny, nx)
						}
						if dilate && v != 0 {
							hit = true
						}
						if !dilate && v == 0 {
							hit = false
						}
					}
				}
				if hit {
					next.Set(1, y, x)
				}
			}
		}
		cur = next
	}
	return cur, nil
}

// FillHoles returns the mask with every background region NOT connected to
// the image border filled in — turning a closed edge ring into a solid
// blob. 4-connectivity on the background.
func FillHoles(mask *tensor.Tensor) (*tensor.Tensor, error) {
	if mask.Rank() != 2 {
		return nil, fmt.Errorf("shape: fill holes needs rank-2 mask, got rank %d", mask.Rank())
	}
	h, w := mask.Dim(0), mask.Dim(1)
	outside := make([]bool, h*w)
	var queue []int
	push := func(y, x int) {
		i := y*w + x
		if y >= 0 && y < h && x >= 0 && x < w && !outside[i] && mask.At(y, x) == 0 {
			outside[i] = true
			queue = append(queue, i)
		}
	}
	for x := 0; x < w; x++ {
		push(0, x)
		push(h-1, x)
	}
	for y := 0; y < h; y++ {
		push(y, 0)
		push(y, w-1)
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		py, px := p/w, p%w
		push(py-1, px)
		push(py+1, px)
		push(py, px-1)
		push(py, px+1)
	}
	out := tensor.MustNew(h, w)
	for i := range outside {
		if !outside[i] {
			out.Data()[i] = 1
		}
	}
	return out, nil
}

// LargestComponent returns a mask containing only the largest 4-connected
// component of nonzero pixels in the binary image, together with its pixel
// count. It isolates the sign blob from background clutter.
func LargestComponent(bin *tensor.Tensor) (*tensor.Tensor, int, error) {
	if bin.Rank() != 2 {
		return nil, 0, fmt.Errorf("shape: components need rank-2 image, got rank %d", bin.Rank())
	}
	h, w := bin.Dim(0), bin.Dim(1)
	labels := make([]int, h*w)
	next := 0
	bestLabel, bestSize := -1, 0
	var queue []int
	for start := 0; start < h*w; start++ {
		if bin.Data()[start] == 0 || labels[start] != 0 {
			continue
		}
		next++
		size := 0
		queue = append(queue[:0], start)
		labels[start] = next
		for len(queue) > 0 {
			p := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			py, px := p/w, p%w
			for _, d := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
				ny, nx := py+d[0], px+d[1]
				if ny < 0 || ny >= h || nx < 0 || nx >= w {
					continue
				}
				q := ny*w + nx
				if bin.Data()[q] != 0 && labels[q] == 0 {
					labels[q] = next
					queue = append(queue, q)
				}
			}
		}
		if size > bestSize {
			bestSize, bestLabel = size, next
		}
	}
	out := tensor.MustNew(h, w)
	if bestLabel < 0 {
		return out, 0, nil
	}
	for i, l := range labels {
		if l == bestLabel {
			out.Data()[i] = 1
		}
	}
	return out, bestSize, nil
}

// Centroid returns the centre of mass of the nonzero pixels of a binary
// mask. It returns an error if the mask is empty.
func Centroid(mask *tensor.Tensor) (cx, cy float64, err error) {
	if mask.Rank() != 2 {
		return 0, 0, fmt.Errorf("shape: centroid needs rank-2 mask, got rank %d", mask.Rank())
	}
	h, w := mask.Dim(0), mask.Dim(1)
	var sx, sy, n float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if mask.At(y, x) != 0 {
				sx += float64(x)
				sy += float64(y)
				n++
			}
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("shape: centroid of empty mask")
	}
	return sx / n, sy / n, nil
}

// BoundaryTrace returns the closed outer boundary of the largest blob in a
// binary mask using Moore-neighbour tracing with Jacob's stopping criterion.
// The mask should contain a single component (use LargestComponent first).
func BoundaryTrace(mask *tensor.Tensor) ([]Point, error) {
	if mask.Rank() != 2 {
		return nil, fmt.Errorf("shape: boundary trace needs rank-2 mask, got rank %d", mask.Rank())
	}
	h, w := mask.Dim(0), mask.Dim(1)
	at := func(x, y int) bool {
		return x >= 0 && x < w && y >= 0 && y < h && mask.At(y, x) != 0
	}
	// Find the top-most, left-most foreground pixel (raster scan order).
	startX, startY := -1, -1
scan:
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if at(x, y) {
				startX, startY = x, y
				break scan
			}
		}
	}
	if startX < 0 {
		return nil, fmt.Errorf("shape: boundary trace of empty mask")
	}
	// Single-pixel blob.
	alone := true
	for _, d := range mooreOffsets {
		if at(startX+d[0], startY+d[1]) {
			alone = false
			break
		}
	}
	if alone {
		return []Point{{startX, startY}}, nil
	}

	contour := make([]Point, 0, 4*(h+w))
	cur := Point{startX, startY}
	contour = append(contour, cur)
	// The raster scan entered the start pixel from the west; begin the
	// neighbourhood search there (index 6 is west; start one past it).
	dir := 6
	maxSteps := 4 * h * w // safety bound; a contour cannot be longer
	for step := 0; step < maxSteps; step++ {
		found := false
		for i := 0; i < 8; i++ {
			d := (dir + 1 + i) % 8
			nx, ny := cur.X+mooreOffsets[d][0], cur.Y+mooreOffsets[d][1]
			if at(nx, ny) {
				// Back-track direction: where we came from relative to the
				// new pixel, so the search resumes just past it.
				dir = (d + 4) % 8
				cur = Point{nx, ny}
				found = true
				break
			}
		}
		if !found {
			return contour, nil // isolated after all (defensive)
		}
		if cur.X == startX && cur.Y == startY {
			return contour, nil
		}
		contour = append(contour, cur)
	}
	return nil, fmt.Errorf("shape: boundary trace did not close after %d steps", maxSteps)
}

// RadialSeries is radialSeries into fresh buffers of length n.
func RadialSeries(contour []Point, cx, cy float64, n int) ([]float64, error) {
	series := make([]float64, max(n, 0))
	if err := radialSeries(contour, cx, cy, series, make([]bool, len(series))); err != nil {
		return nil, err
	}
	return series, nil
}

// qualifyFloat is QualifyEdgeMap on the float-mask path.
func qualifyFloat(q *Qualifier, edges *tensor.Tensor) (Result, error) {
	var res Result
	res.Class = ClassUnknown
	if edges.Rank() != 2 {
		return res, fmt.Errorf("shape: edge map must be rank 2, got rank %d", edges.Rank())
	}
	// Normalise to [0,1] before Otsu.
	mx := edges.Max()
	norm := edges.Clone()
	if mx > 0 {
		norm.Scale(1 / mx)
	}
	// Zero a small border margin: zero-padded convolutions produce strong
	// spurious gradients along the frame, which would otherwise survive
	// thresholding, enclose the frame after closing, and flood the fill.
	const margin = 2
	h, w := norm.Dim(0), norm.Dim(1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if y < margin || y >= h-margin || x < margin || x >= w-margin {
				norm.Set(0, y, x)
			}
		}
	}
	thresh, err := OtsuThreshold(norm)
	if err != nil {
		return res, err
	}
	bin, err := Binarize(norm, thresh)
	if err != nil {
		return res, err
	}
	closed, err := Dilate(bin, 1)
	if err != nil {
		return res, err
	}
	filled, err := FillHoles(closed)
	if err != nil {
		return res, err
	}
	// Undo the dilation so the blob geometry matches the true outline.
	solid, err := Erode(filled, 1)
	if err != nil {
		return res, err
	}
	blob, area, err := LargestComponent(solid)
	if err != nil {
		return res, err
	}
	res.Area = area
	if area < 16 {
		return res, nil // nothing segmentable: withhold qualification
	}
	cx, cy, err := Centroid(blob)
	if err != nil {
		return res, err
	}
	contour, err := BoundaryTrace(blob)
	if err != nil {
		return res, err
	}
	series, err := RadialSeries(contour, cx, cy, seriesLen)
	if err != nil {
		return res, err
	}
	out, err := q.classifySeries(series, nil)
	out.Area = area
	return out, err
}
