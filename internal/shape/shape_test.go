package shape

import (
	"math"
	"testing"

	"repro/internal/reliable"
	"repro/internal/tensor"
)

// TestSobel3Kernels: SobelX(3) and SobelY(3) are the classic 3×3 Sobel
// kernels, scaled so the positive entries sum to +2.
func TestSobel3Kernels(t *testing.T) {
	classicX := []float32{
		-1, 0, 1,
		-2, 0, 2,
		-1, 0, 1,
	}
	kx, err := SobelX(3)
	if err != nil {
		t.Fatal(err)
	}
	ky, err := SobelY(3)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if want := classicX[y*3+x] / 2; kx.At(y, x) != want || ky.At(x, y) != want {
				t.Fatalf("(%d,%d): SobelX %v, SobelY transposed %v, want %v", y, x, kx.At(y, x), ky.At(x, y), want)
			}
		}
	}
}

// sobelEdges convolves an H×W image with SobelX(3) and SobelY(3) ("same"
// size, zero padding) through reliable.NativeConv2D and returns both
// responses and their magnitude sqrt(gx²+gy²).
func sobelEdges(t *testing.T, img *tensor.Tensor) (gx, gy, mag *tensor.Tensor) {
	t.Helper()
	h, w := img.Dim(0), img.Dim(1)
	kx, err := SobelX(3)
	if err != nil {
		t.Fatal(err)
	}
	ky, err := SobelY(3)
	if err != nil {
		t.Fatal(err)
	}
	filters := tensor.MustFromSlice(append(append([]float32(nil), kx.Data()...), ky.Data()...), 2, 1, 3, 3)
	out, err := reliable.NativeConv2D(tensor.MustFromSlice(img.Data(), 1, h, w), filters, nil,
		reliable.ConvSpec{Stride: 1, Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	gx = tensor.MustFromSlice(out.Data()[:h*w], h, w)
	gy = tensor.MustFromSlice(out.Data()[h*w:], h, w)
	mag = tensor.MustNew(h, w)
	for i, v := range gx.Data() {
		mag.Data()[i] = float32(math.Hypot(float64(v), float64(gy.Data()[i])))
	}
	return gx, gy, mag
}

func TestExtendedSobelProperties(t *testing.T) {
	for _, n := range []int{3, 5, 7, 11} {
		kx, err := SobelX(n)
		if err != nil {
			t.Fatal(err)
		}
		if kx.Dim(0) != n || kx.Dim(1) != n {
			t.Fatalf("SobelX(%d) shape %v", n, kx.Shape())
		}
		if math.Abs(kx.Sum()) > 1e-5 {
			t.Errorf("SobelX(%d) sum = %v, want 0", n, kx.Sum())
		}
		// Antisymmetric in x: k[y][x] = -k[y][n-1-x]; middle column zero.
		for y := 0; y < n; y++ {
			if kx.At(y, n/2) != 0 {
				t.Errorf("SobelX(%d) centre column not zero", n)
			}
			for x := 0; x < n; x++ {
				if kx.At(y, x) != -kx.At(y, n-1-x) {
					t.Errorf("SobelX(%d) not antisymmetric at (%d,%d)", n, y, x)
				}
			}
		}
		ky, err := SobelY(n)
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if ky.At(y, x) != kx.At(x, y) {
					t.Errorf("SobelY(%d) is not the transpose of SobelX", n)
				}
			}
		}
	}
	for _, bad := range []int{2, 4, 1, 0, -3} {
		if _, err := SobelX(bad); err == nil {
			t.Errorf("SobelX(%d) should fail", bad)
		}
	}
	if _, err := SobelY(4); err == nil {
		t.Error("SobelY(4) should fail")
	}
}

func TestSobelRespondsToEdges(t *testing.T) {
	// Vertical step edge: strong Sobel-x response, zero Sobel-y response.
	img := tensor.MustNew(9, 9)
	for y := 0; y < 9; y++ {
		for x := 5; x < 9; x++ {
			img.Set(1, y, x)
		}
	}
	gx, gy, _ := sobelEdges(t, img)
	if gx.At(4, 4) <= 0 {
		t.Error("Sobel-x should respond to a vertical edge")
	}
	if gy.At(4, 4) != 0 {
		t.Error("Sobel-y should not respond to a vertical edge in the interior")
	}
}

func TestBinarizeAndOtsu(t *testing.T) {
	img := tensor.MustFromSlice([]float32{0.1, 0.1, 0.9, 0.9}, 2, 2)
	th, err := OtsuThreshold(img)
	if err != nil {
		t.Fatal(err)
	}
	if th < 0.1 || th >= 0.9 {
		t.Errorf("Otsu threshold %v should separate the two modes", th)
	}
	bin, err := Binarize(img, th)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0, 1, 1}
	for i, w := range want {
		if bin.Data()[i] != w {
			t.Errorf("binarized[%d] = %v, want %v", i, bin.Data()[i], w)
		}
	}
	if _, err := Binarize(tensor.MustNew(2), 0.5); err == nil {
		t.Error("rank-1 binarize should fail")
	}
	if _, err := OtsuThreshold(tensor.MustNew(3)); err == nil {
		t.Error("rank-1 otsu should fail")
	}
	if _, err := OtsuThreshold(tensor.MustNew(0, 0)); err == nil {
		t.Error("empty otsu should fail")
	}
}

func TestLargestComponent(t *testing.T) {
	img := tensor.MustNew(8, 8)
	// Small blob: 2 pixels.
	img.Set(1, 0, 0)
	img.Set(1, 0, 1)
	// Large blob: 3×3.
	for y := 4; y < 7; y++ {
		for x := 4; x < 7; x++ {
			img.Set(1, y, x)
		}
	}
	blob, size, err := LargestComponent(img)
	if err != nil {
		t.Fatal(err)
	}
	if size != 9 {
		t.Errorf("largest component size = %d, want 9", size)
	}
	if blob.At(0, 0) != 0 {
		t.Error("small blob should be removed")
	}
	if blob.At(5, 5) != 1 {
		t.Error("large blob should remain")
	}
	// Empty image.
	empty, size, err := LargestComponent(tensor.MustNew(4, 4))
	if err != nil || size != 0 {
		t.Errorf("empty component = %d, %v", size, err)
	}
	if empty.Sum() != 0 {
		t.Error("empty mask should be all zeros")
	}
	if _, _, err := LargestComponent(tensor.MustNew(4)); err == nil {
		t.Error("rank-1 should fail")
	}
}

func TestCentroid(t *testing.T) {
	img := tensor.MustNew(5, 5)
	img.Set(1, 2, 1)
	img.Set(1, 2, 3)
	cx, cy, err := Centroid(img)
	if err != nil {
		t.Fatal(err)
	}
	if cx != 2 || cy != 2 {
		t.Errorf("centroid = (%v,%v), want (2,2)", cx, cy)
	}
	if _, _, err := Centroid(tensor.MustNew(3, 3)); err == nil {
		t.Error("empty centroid should fail")
	}
	if _, _, err := Centroid(tensor.MustNew(3)); err == nil {
		t.Error("rank-1 centroid should fail")
	}
}

func TestBoundaryTraceSquare(t *testing.T) {
	img := tensor.MustNew(10, 10)
	for y := 2; y < 8; y++ {
		for x := 2; x < 8; x++ {
			img.Set(1, y, x)
		}
	}
	contour, err := BoundaryTrace(img)
	if err != nil {
		t.Fatal(err)
	}
	// A 6×6 square's boundary has 20 pixels.
	if len(contour) != 20 {
		t.Errorf("contour length = %d, want 20", len(contour))
	}
	for _, p := range contour {
		onBorder := p.X == 2 || p.X == 7 || p.Y == 2 || p.Y == 7
		if !onBorder {
			t.Errorf("contour point %+v not on border", p)
		}
	}
}

func TestBoundaryTraceDegenerate(t *testing.T) {
	// Single pixel.
	img := tensor.MustNew(5, 5)
	img.Set(1, 2, 2)
	c, err := BoundaryTrace(img)
	if err != nil || len(c) != 1 {
		t.Errorf("single-pixel contour = %v, %v", c, err)
	}
	// Empty mask.
	if _, err := BoundaryTrace(tensor.MustNew(5, 5)); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := BoundaryTrace(tensor.MustNew(5)); err == nil {
		t.Error("rank-1 trace should fail")
	}
}

func TestRadialSeriesCircleIsFlat(t *testing.T) {
	// Rasterise a disc and check the radial series is nearly constant.
	const sz = 64
	img := tensor.MustNew(sz, sz)
	for y := 0; y < sz; y++ {
		for x := 0; x < sz; x++ {
			dx, dy := float64(x-sz/2), float64(y-sz/2)
			if dx*dx+dy*dy <= 20*20 {
				img.Set(1, y, x)
			}
		}
	}
	contour, err := BoundaryTrace(img)
	if err != nil {
		t.Fatal(err)
	}
	cx, cy, err := Centroid(img)
	if err != nil {
		t.Fatal(err)
	}
	series, err := RadialSeries(contour, cx, cy, 64)
	if err != nil {
		t.Fatal(err)
	}
	mn, mx := series[0], series[0]
	for _, v := range series {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if (mx-mn)/mn > 0.1 {
		t.Errorf("disc radial series not flat: [%v, %v]", mn, mx)
	}
}

func TestRadialSeriesValidation(t *testing.T) {
	if _, err := RadialSeries(nil, 0, 0, 16); err == nil {
		t.Error("empty contour should fail")
	}
	if _, err := RadialSeries([]Point{{1, 1}}, 0, 0, 2); err == nil {
		t.Error("n < 4 should fail")
	}
	// Single point fills one bin; the rest interpolate to the same value.
	s, err := RadialSeries([]Point{{3, 4}}, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s {
		if math.Abs(v-5) > 1e-9 {
			t.Errorf("interpolated series = %v, want all 5", s)
		}
	}
}

func TestSmoothCircular(t *testing.T) {
	s, err := SmoothCircular([]float64{1, 0, 0, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Circular smoothing spreads the spike across the wrap boundary.
	want := []float64{1.0 / 3, 1.0 / 3, 0, 1.0 / 3}
	for i, w := range want {
		if math.Abs(s[i]-w) > 1e-12 {
			t.Errorf("smooth[%d] = %v, want %v", i, s[i], w)
		}
	}
	if _, err := SmoothCircular([]float64{1}, 2); err == nil {
		t.Error("even window should fail")
	}
	if _, err := SmoothCircular(nil, 3); err == nil {
		t.Error("empty series should fail")
	}
	id, _ := SmoothCircular([]float64{1, 2}, 1)
	if id[0] != 1 || id[1] != 2 {
		t.Error("window 1 should be identity")
	}
}

func TestCountPeaksOnAnalyticPolygons(t *testing.T) {
	for _, k := range []int{3, 4, 8} {
		series, err := PolygonRadialSeries(k, 128, 1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		mean := 0.0
		mx := series[0]
		for _, v := range series {
			mean += v
			if v > mx {
				mx = v
			}
		}
		mean /= float64(len(series))
		peaks, err := countPeaks(series, 0.25*(mx-mean), 128/20, nil)
		if err != nil {
			t.Fatal(err)
		}
		if peaks != k {
			t.Errorf("k=%d polygon: counted %d peaks", k, peaks)
		}
	}
	if _, err := countPeaks([]float64{1, 2}, 0, 1, nil); err == nil {
		t.Error("short series should fail")
	}
}

func TestPolygonRadialSeriesProperties(t *testing.T) {
	series, err := PolygonRadialSeries(8, 128, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	apothem := 2 * math.Cos(math.Pi/8)
	for _, v := range series {
		if v < apothem-1e-9 || v > 2+1e-9 {
			t.Errorf("octagon radius %v out of [apothem=%v, R=2]", v, apothem)
		}
	}
	for _, bad := range []struct{ k, n int }{{2, 64}, {3, 3}} {
		if _, err := PolygonRadialSeries(bad.k, bad.n, 1, 0); err == nil {
			t.Errorf("PolygonRadialSeries(%d,%d) should fail", bad.k, bad.n)
		}
	}
	if _, err := PolygonRadialSeries(3, 64, -1, 0); err == nil {
		t.Error("negative radius should fail")
	}
	c, err := CircleRadialSeries(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c {
		if v != 3 {
			t.Error("circle series should be constant")
		}
	}
	if _, err := CircleRadialSeries(2, 1); err == nil {
		t.Error("n < 4 should fail")
	}
	if _, err := CircleRadialSeries(16, 0); err == nil {
		t.Error("r = 0 should fail")
	}
}

func TestQualifierOnAnalyticSeries(t *testing.T) {
	q, err := NewQualifier()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		k    int
		want Class
	}{
		{3, ClassTriangle}, {4, ClassSquare}, {8, ClassOctagon},
	}
	for _, c := range cases {
		for _, offset := range []float64{0, 0.2, 0.5, 1.0} {
			series, err := PolygonRadialSeries(c.k, 128, 1, offset)
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.classifySeries(series, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Class != c.want {
				t.Errorf("k=%d offset=%v: classified %v (peaks=%d dist=%.2f), want %v",
					c.k, offset, res.Class, res.Peaks, res.WordDist, c.want)
			}
		}
	}
	circle, _ := CircleRadialSeries(128, 1)
	res, err := q.classifySeries(circle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassCircle {
		t.Errorf("circle classified as %v", res.Class)
	}
}

func TestQualifierSeriesValidation(t *testing.T) {
	q, err := NewQualifier()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.classifySeries(make([]float64, 10), nil); err == nil {
		t.Error("wrong-length series should fail")
	}
	neg := make([]float64, 128)
	for i := range neg {
		neg[i] = -1
	}
	if _, err := q.classifySeries(neg, nil); err == nil {
		t.Error("non-positive mean radius should fail")
	}
}

func TestQualifierTemplatesAndEncoder(t *testing.T) {
	q, err := NewQualifier()
	if err != nil {
		t.Fatal(err)
	}
	if q.enc == nil {
		t.Fatal("encoder missing")
	}
	for _, c := range []Class{ClassCircle, ClassTriangle, ClassSquare, ClassOctagon} {
		w := q.templates[c]
		if len(w.Symbols) != 16 {
			t.Errorf("template %v has %d symbols", c, len(w.Symbols))
		}
	}
}

func TestClassString(t *testing.T) {
	for _, c := range []Class{ClassUnknown, ClassCircle, ClassTriangle, ClassSquare, ClassOctagon, Class(42)} {
		if c.String() == "" {
			t.Error("empty class string")
		}
	}
}

// Rasterised end-to-end: draw a polygon mask directly and qualify it.
func rasterPolygon(t *testing.T, k int, rot float64, sz int) *tensor.Tensor {
	t.Helper()
	img := tensor.MustNew(sz, sz)
	r := 0.4 * float64(sz)
	cx, cy := float64(sz)/2, float64(sz)/2
	for y := 0; y < sz; y++ {
		for x := 0; x < sz; x++ {
			// Inside test via the analytic radial function.
			dx, dy := float64(x)-cx, float64(y)-cy
			theta := math.Atan2(dy, dx) - rot
			sector := 2 * math.Pi / float64(k)
			a := math.Mod(theta, sector)
			if a < 0 {
				a += sector
			}
			a -= sector / 2
			maxR := r * math.Cos(math.Pi/float64(k)) / math.Cos(a)
			if math.Hypot(dx, dy) <= maxR {
				img.Set(1, y, x)
			}
		}
	}
	return img
}

func TestQualifyEdgeMapOnRasterisedShapes(t *testing.T) {
	q, err := NewQualifier()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		k    int
		want Class
	}{{3, ClassTriangle}, {4, ClassSquare}, {8, ClassOctagon}}
	for _, c := range cases {
		for _, rot := range []float64{0, 0.15, 0.3} {
			_, _, edges := sobelEdges(t, rasterPolygon(t, c.k, rot, 96))
			res, err := q.QualifyEdgeMap(edges)
			if err != nil {
				t.Fatalf("k=%d rot=%v: %v", c.k, rot, err)
			}
			if res.Class != c.want {
				t.Errorf("k=%d rot=%v: got %v (peaks=%d round=%.3f dist=%.2f), want %v",
					c.k, rot, res.Class, res.Peaks, res.Round, res.WordDist, c.want)
			}
		}
	}
}

func TestQualifyEdgeMapEmpty(t *testing.T) {
	q, _ := NewQualifier()
	res, err := q.QualifyEdgeMap(tensor.MustNew(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != ClassUnknown {
		t.Error("all-zero edge map should be unknown")
	}
}

func TestQualifyEdgeMap(t *testing.T) {
	q, _ := NewQualifier()
	img := rasterPolygon(t, 8, 0.2, 96)
	_, _, edges := sobelEdges(t, img)
	res, err := q.QualifyEdgeMap(edges)
	if err != nil {
		t.Fatal(err)
	}
	// The edge ring of an octagon is itself octagonal.
	if res.Class != ClassOctagon {
		t.Errorf("edge-map qualification = %v (peaks=%d round=%.3f), want octagon",
			res.Class, res.Peaks, res.Round)
	}
	if _, err := q.QualifyEdgeMap(tensor.MustNew(3, 8, 8)); err == nil {
		t.Error("rank-3 edge map should fail")
	}
}

func TestRadialSeriesRotationShiftsSeries(t *testing.T) {
	// The radial series of a rotated polygon is (approximately) a circular
	// shift — the invariance Encoder.MinRotationMinDist relies on.
	_, _, base := sobelEdges(t, rasterPolygon(t, 4, 0, 96))
	_, _, rot := sobelEdges(t, rasterPolygon(t, 4, math.Pi/4, 96))
	q, _ := NewQualifier()
	r1, err := q.QualifyEdgeMap(base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.QualifyEdgeMap(rot)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Class != r2.Class {
		t.Errorf("rotation changed class: %v vs %v", r1.Class, r2.Class)
	}
}
