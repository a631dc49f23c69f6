package shape

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/reliable"
	"repro/internal/tensor"
)

// sameResult reports how two verdicts differ: Class, Peaks, Word and Area
// must be equal, and Series, WordDist and Round equal bit for bit.
func sameResult(got, want Result) error {
	if got.Class != want.Class || got.Peaks != want.Peaks || got.Area != want.Area ||
		!reflect.DeepEqual(got.Word, want.Word) {
		return fmt.Errorf("class/peaks/area/word %v/%d/%d/%v, want %v/%d/%d/%v",
			got.Class, got.Peaks, got.Area, got.Word, want.Class, want.Peaks, want.Area, want.Word)
	}
	if math.Float64bits(got.WordDist) != math.Float64bits(want.WordDist) ||
		math.Float64bits(got.Round) != math.Float64bits(want.Round) {
		return fmt.Errorf("dist/round %v/%v, want %v/%v", got.WordDist, got.Round, want.WordDist, want.Round)
	}
	if len(got.Series) != len(want.Series) {
		return fmt.Errorf("series length %d, want %d", len(got.Series), len(want.Series))
	}
	for i, v := range got.Series {
		if math.Float64bits(v) != math.Float64bits(want.Series[i]) {
			return fmt.Errorf("series[%d] = %v, want %v", i, v, want.Series[i])
		}
	}
	return nil
}

// checkQualify compares QualifyEdgeMap with the float-mask oracle on one
// edge map, errors included.
func checkQualify(q *Qualifier, edges *tensor.Tensor) error {
	got, gerr := q.QualifyEdgeMap(edges)
	want, werr := qualifyFloat(q, edges)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		return fmt.Errorf("error %v, want %v", gerr, werr)
	}
	return sameResult(got, want)
}

func toBits(m bitMask, t *tensor.Tensor) []uint64 {
	p := make([]uint64, m.h*m.stride)
	for y := 0; y < m.h; y++ {
		for x := 0; x < m.w; x++ {
			if t.At(y, x) != 0 {
				p[y*m.stride+x/64] |= 1 << (x % 64)
			}
		}
	}
	return p
}

// checkSteps runs each bit-mask step on a binary mask and compares it with
// its float-mask oracle: dilation, erosion, hole filling, the largest
// component and its area, its centroid and its traced boundary.
func checkSteps(mask *tensor.Tensor) error {
	h, w := mask.Dim(0), mask.Dim(1)
	m := newBitMask(h, w)
	n := h * m.stride
	src := toBits(m, mask)
	dst, tmp, work, work2 := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	rev := make([]uint64, 2*m.stride)
	for _, dilate := range []bool{true, false} {
		want, err := morph(mask, 1, dilate)
		if err != nil {
			return err
		}
		m.morph3(dst, src, tmp, dilate)
		if !reflect.DeepEqual(dst, toBits(m, want)) {
			return fmt.Errorf("morph3(dilate=%v) differs from the float oracle", dilate)
		}
	}
	want, err := FillHoles(mask)
	if err != nil {
		return err
	}
	m.fillHoles(dst, src, work, work2, rev)
	if !reflect.DeepEqual(dst, toBits(m, want)) {
		return fmt.Errorf("fillHoles differs from the float oracle")
	}
	blobWant, areaWant, err := LargestComponent(mask)
	if err != nil {
		return err
	}
	solid := append([]uint64(nil), src...)
	blob, area := m.largest(solid, work, work2, rev)
	if area != areaWant || (area > 0 && !reflect.DeepEqual(blob, toBits(m, blobWant))) {
		return fmt.Errorf("largest component of %d px differs from the float oracle's %d px", area, areaWant)
	}
	if area == 0 {
		return nil
	}
	cxWant, cyWant, err := Centroid(blobWant)
	if err != nil {
		return err
	}
	if cx, cy := m.centroid(blob, area); math.Float64bits(cx) != math.Float64bits(cxWant) ||
		math.Float64bits(cy) != math.Float64bits(cyWant) {
		return fmt.Errorf("centroid (%v,%v), want (%v,%v)", cx, cy, cxWant, cyWant)
	}
	contourWant, err := BoundaryTrace(blobWant)
	if err != nil {
		return err
	}
	contour, err := m.trace(blob, nil)
	if err != nil || !reflect.DeepEqual(contour, contourWant) {
		return fmt.Errorf("boundary trace (%d points, %v) differs from the float oracle's %d points",
			len(contour), err, len(contourWant))
	}
	return nil
}

// signEdges is conv1's view of a rendered sign: Sobel-x and Sobel-y 5×5
// filters over every colour channel, valid convolution, and the per-pixel
// magnitude, as the demo hybrid computes it.
func signEdges(t testing.TB, img *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	sx, err := SobelX(5)
	if err != nil {
		t.Fatal(err)
	}
	sy, err := SobelY(5)
	if err != nil {
		t.Fatal(err)
	}
	c := img.Dim(0)
	var f []float32
	for _, k := range []*tensor.Tensor{sx, sy} {
		for i := 0; i < c; i++ {
			f = append(f, k.Data()...)
		}
	}
	out, err := reliable.NativeConv2D(img, tensor.MustFromSlice(f, 2, c, 5, 5), nil, reliable.ConvSpec{Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, w := out.Dim(1), out.Dim(2)
	mag := tensor.MustNew(h, w)
	for i := range mag.Data() {
		mag.Data()[i] = float32(math.Hypot(float64(out.Data()[i]), float64(out.Data()[h*w+i])))
	}
	return mag
}

// randomEdgeMap draws an h×w edge map: background noise plus a few rings
// and discs of random centre, radius and strength, so thresholding leaves
// closed and broken rings, blobs, speckle and frame-touching shapes.
func randomEdgeMap(rng *rand.Rand, h, w int) *tensor.Tensor {
	t := tensor.MustNew(h, w)
	d := t.Data()
	noise := rng.Float32() * 0.5
	for i := range d {
		d[i] = rng.Float32() * noise
	}
	for s := rng.Intn(4); s >= 0; s-- {
		cx, cy := rng.Float64()*float64(w), rng.Float64()*float64(h)
		r := 1 + rng.Float64()*float64(max(h, w))/2
		thick := 0.5 + rng.Float64()*3
		disc := rng.Intn(3) == 0
		v := 0.5 + rng.Float32()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dist := math.Hypot(float64(x)-cx, float64(y)-cy)
				if (disc && dist <= r) || math.Abs(dist-r) <= thick {
					d[y*w+x] += v
				}
			}
		}
	}
	return t
}

// randomMask thresholds fresh uniform noise at a random density.
func randomMask(rng *rand.Rand, h, w int) *tensor.Tensor {
	t := tensor.MustNew(h, w)
	p := rng.Float32()
	for i := range t.Data() {
		if rng.Float32() < p {
			t.Data()[i] = 1
		}
	}
	return t
}

// TestQualifyMatchesFloatOracle: the bit-mask qualifier gives the float-mask
// oracle's verdict bit for bit — on conv1 edge maps of every standard class
// and the angled stop sign at 16, 32 and 64 px, and on random edge maps one
// word wide, exactly one word, just over one word and three words wide,
// with heights 1 to 70. Every mask step is also checked on its own, on the
// random maps' binary masks, so a rule the full pipeline never exercises
// (the frame edge, a tie between components) still has to match.
func TestQualifyMatchesFloatOracle(t *testing.T) {
	q, err := NewQualifier()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	for _, size := range []int{16, 32, 64} {
		cfg, err := gtsrb.Config{Size: size}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		var imgs []*tensor.Tensor
		for _, spec := range gtsrb.StandardClasses() {
			for i := 0; i < 3; i++ {
				img, err := gtsrb.Render(gtsrb.RandomParams(cfg, spec, rng), rng)
				if err != nil {
					t.Fatal(err)
				}
				imgs = append(imgs, img)
			}
		}
		stop, err := gtsrb.AngledStopSign(size, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range append(imgs, stop) {
			if err := checkQualify(q, signEdges(t, img)); err != nil {
				t.Errorf("%d px render %d: %v", size, i, err)
			}
		}
	}
	for _, w := range []int{1, 63, 64, 65, 130} {
		for h := 1; h <= 70; h++ {
			edges := randomEdgeMap(rng, h, w)
			if err := checkQualify(q, edges); err != nil {
				t.Errorf("random %d×%d edge map: %v", h, w, err)
			}
			if err := checkSteps(randomMask(rng, h, w)); err != nil {
				t.Errorf("random %d×%d mask: %v", h, w, err)
			}
			thresh, err := OtsuThreshold(edges)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := Binarize(edges, thresh)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSteps(bin); err != nil {
				t.Errorf("random %d×%d edge map's mask: %v", h, w, err)
			}
		}
	}
}

// FuzzQualifyMask: for any edge map, QualifyEdgeMap equals the float-mask
// oracle, and every mask step equals its oracle on the map's binary mask
// (one pixel per input byte, set when the byte is odd).
func FuzzQualifyMask(f *testing.F) {
	f.Add(uint8(8), []byte{0, 9, 9, 0, 9, 0, 0, 9, 0, 9, 9, 0, 200, 3, 7, 1, 0, 0, 255, 255})
	f.Add(uint8(65), make([]byte, 65*3))
	f.Add(uint8(1), []byte{1, 2, 3})
	f.Add(uint8(5), bytes.Repeat([]byte{255}, 5*6)) // a solid mask meets every frame edge
	q, err := NewQualifier()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		w := int(width)%130 + 1
		h := len(data) / w
		if h == 0 || h > 130 {
			return
		}
		edges, mask := tensor.MustNew(h, w), tensor.MustNew(h, w)
		for i := range edges.Data() {
			edges.Data()[i] = float32(data[i]) / 255
			mask.Data()[i] = float32(data[i] & 1)
		}
		if err := checkQualify(q, edges); err != nil {
			t.Fatalf("%d×%d edge map: %v", h, w, err)
		}
		if err := checkSteps(mask); err != nil {
			t.Fatalf("%d×%d mask: %v", h, w, err)
		}
	})
}

// TestQualifyEdgeMapAllocs: after warm-up QualifyEdgeMap allocates only what
// its Result keeps, the smoothed series and the SAX word; the masks,
// contour, radial series and peak list come from pooled scratch.
func TestQualifyEdgeMapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	q, err := NewQualifier()
	if err != nil {
		t.Fatal(err)
	}
	stop, err := gtsrb.AngledStopSign(32, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	_, _, octagon := sobelEdges(t, rasterPolygon(t, 8, 0.2, 96))
	for _, edges := range []*tensor.Tensor{signEdges(t, stop), octagon} {
		if _, err := q.QualifyEdgeMap(edges); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := q.QualifyEdgeMap(edges); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%v edge map: %v allocations per call, want <= 2", edges.Shape(), allocs)
		}
	}
}

// TestQualifyEdgeMapConcurrent: goroutines share one Qualifier, and with it
// the pooled scratch, over edge maps of different sizes, so buffers pass
// between goroutines and grow and shrink between calls. Every verdict
// equals the one a serial call gives.
func TestQualifyEdgeMapConcurrent(t *testing.T) {
	q, err := NewQualifier()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	maps := make([]*tensor.Tensor, 12)
	want := make([]Result, len(maps))
	for i := range maps {
		if i%2 == 0 {
			stop, err := gtsrb.AngledStopSign(16<<(i%3), rng)
			if err != nil {
				t.Fatal(err)
			}
			maps[i] = signEdges(t, stop)
		} else {
			maps[i] = randomEdgeMap(rng, 10+7*i, 20+11*i)
		}
		if want[i], err = q.QualifyEdgeMap(maps[i]); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 4, 5
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for j := 0; j < rounds*len(maps); j++ {
				i := (g + j) % len(maps)
				got, err := q.QualifyEdgeMap(maps[i])
				if err == nil {
					err = sameResult(got, want[i])
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, map %d: %w", g, i, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
