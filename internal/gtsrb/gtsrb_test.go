package gtsrb

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestStandardClasses(t *testing.T) {
	classes := StandardClasses()
	if len(classes) != 6 {
		t.Fatalf("want 6 classes, got %d", len(classes))
	}
	if classes[StopClass].Name != "stop" || classes[StopClass].Shape != ShapeOctagon {
		t.Error("StopClass must be the red octagon")
	}
	seen := map[string]bool{}
	for _, c := range classes {
		if c.Name == "" {
			t.Error("class with empty name")
		}
		if seen[c.Name] {
			t.Errorf("duplicate class name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestSignShapeString(t *testing.T) {
	for _, s := range []SignShape{ShapeOctagon, ShapeTriangleDown, ShapeTriangleUp, ShapeCircle, ShapeSquare, SignShape(99)} {
		if s.String() == "" {
			t.Error("empty shape string")
		}
	}
}

func TestRenderBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := SignParams{
		Shape: ShapeOctagon, Fill: RGB{0.8, 0.1, 0.1}, Size: 32,
		CenterX: 16, CenterY: 16, Radius: 12,
		Background: 0.1, NoiseSigma: 0, Brightness: 1,
	}
	img, err := Render(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	if img.Dim(0) != 3 || img.Dim(1) != 32 || img.Dim(2) != 32 {
		t.Fatalf("image shape %v", img.Shape())
	}
	// Centre pixel is sign-coloured, corner is background.
	if math.Abs(float64(img.At3(0, 16, 16))-0.8) > 1e-5 {
		t.Errorf("centre red = %v, want 0.8", img.At3(0, 16, 16))
	}
	if math.Abs(float64(img.At3(0, 0, 0))-0.1) > 1e-5 {
		t.Errorf("corner = %v, want background 0.1", img.At3(0, 0, 0))
	}
	// All values in [0,1].
	for _, v := range img.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of range", v)
		}
	}
}

func TestRenderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	good := SignParams{Shape: ShapeCircle, Size: 32, CenterX: 16, CenterY: 16, Radius: 10}
	if _, err := Render(good, nil); err == nil {
		t.Error("nil rng should fail")
	}
	bad := good
	bad.Size = 4
	if _, err := Render(bad, rng); err == nil {
		t.Error("tiny size should fail")
	}
	bad = good
	bad.Radius = 0
	if _, err := Render(bad, rng); err == nil {
		t.Error("zero radius should fail")
	}
	bad = good
	bad.Shape = SignShape(0)
	if _, err := Render(bad, rng); err == nil {
		t.Error("unknown shape should fail")
	}
}

func TestRenderDeterministic(t *testing.T) {
	p := SignParams{
		Shape: ShapeSquare, Fill: RGB{0.2, 0.3, 0.9}, Size: 24,
		CenterX: 12, CenterY: 12, Radius: 8,
		Background: 0.15, NoiseSigma: 0.02, Brightness: 1, Clutter: 2,
	}
	a, err := Render(p, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Render(p, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed must render identical images")
	}
}

func TestConfigNormalize(t *testing.T) {
	cfg, err := Config{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Size != 32 || cfg.PerClass != 40 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	if _, err := (Config{Size: 4}).Normalize(); err == nil {
		t.Error("tiny size should fail")
	}
	if _, err := (Config{PerClass: -1}).Normalize(); err == nil {
		t.Error("negative per-class should fail")
	}
	if _, err := (Config{ScaleMin: 0.9, ScaleMax: 0.5}).Normalize(); err == nil {
		t.Error("inverted scale range should fail")
	}
}

func TestGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, err := Generate(Config{Size: 24, PerClass: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 30 {
		t.Fatalf("len = %d, want 30", ds.Len())
	}
	if ds.NumClasses() != 6 {
		t.Fatalf("classes = %d", ds.NumClasses())
	}
	counts := make([]int, ds.NumClasses())
	for _, ex := range ds.Examples {
		counts[ex.Label]++
	}
	for label, n := range counts {
		if n != 5 {
			t.Errorf("class %d has %d examples, want 5", label, n)
		}
	}
	for _, ex := range ds.Examples {
		if ex.Image.Dim(1) != 24 {
			t.Fatalf("example image size %v", ex.Image.Shape())
		}
		if ex.Label < 0 || ex.Label > 5 {
			t.Fatalf("label %d out of range", ex.Label)
		}
	}
	if _, err := Generate(Config{}, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Size: 16, PerClass: 2}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Size: 16, PerClass: 2}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Examples {
		if a.Examples[i].Label != b.Examples[i].Label {
			t.Fatal("labels differ across identical seeds")
		}
		if !a.Examples[i].Image.Equal(b.Examples[i].Image) {
			t.Fatal("images differ across identical seeds")
		}
	}
}

func TestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds, err := Generate(Config{Size: 16, PerClass: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 24 || test.Len() != 6 {
		t.Errorf("split sizes %d/%d, want 24/6", train.Len(), test.Len())
	}
	if _, _, err := ds.Split(0); err == nil {
		t.Error("frac 0 should fail")
	}
	if _, _, err := ds.Split(1); err == nil {
		t.Error("frac 1 should fail")
	}
}

func TestRandomParamsWithinBounds(t *testing.T) {
	cfg, _ := Config{Size: 32}.Normalize()
	rng := rand.New(rand.NewSource(8))
	spec := StandardClasses()[0]
	for i := 0; i < 100; i++ {
		p := RandomParams(cfg, spec, rng)
		if p.Radius <= 0 || p.Radius > float64(cfg.Size)/2 {
			t.Fatalf("radius %v out of bounds", p.Radius)
		}
		if p.Tilt < 0 || p.Tilt > cfg.TiltMax {
			t.Fatalf("tilt %v out of bounds", p.Tilt)
		}
		if math.Abs(p.Rotation) > cfg.RotJitter {
			t.Fatalf("rotation %v out of bounds", p.Rotation)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPNGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	img, err := AngledStopSign(32, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePNG(img, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameShape(img) {
		t.Fatalf("round-trip shape %v != %v", back.Shape(), img.Shape())
	}
	// 8-bit quantisation: within 1/255 plus rounding.
	if !img.AllClose(back, 1.0/255+1e-4) {
		d, _ := img.MaxAbsDiff(back)
		t.Errorf("round-trip error %v exceeds quantisation bound", d)
	}
}

func TestPNGValidation(t *testing.T) {
	if err := WritePNG(tensor.MustNew(2, 4, 4), io.Discard); err == nil {
		t.Error("2-channel tensor should fail")
	}
	if _, err := ToImage(tensor.MustNew(4)); err == nil {
		t.Error("rank-1 tensor should fail")
	}
	if _, err := ReadPNG(bytes.NewReader([]byte("not a png"))); err == nil {
		t.Error("garbage PNG should fail")
	}
	if _, err := FromImage(nil); err == nil {
		t.Error("nil image should fail")
	}
}
