package shape

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestDilateGrowsBlob(t *testing.T) {
	m := tensor.MustNew(5, 5)
	m.Set(1, 2, 2)
	d, err := Dilate(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A single pixel dilates to a 3×3 block.
	if d.Sum() != 9 {
		t.Errorf("dilated mass = %v, want 9", d.Sum())
	}
	for y := 1; y <= 3; y++ {
		for x := 1; x <= 3; x++ {
			if d.At(y, x) != 1 {
				t.Errorf("dilated (%d,%d) = %v", y, x, d.At(y, x))
			}
		}
	}
	// r = 0 is the identity (a copy).
	id, err := Dilate(m, 0)
	if err != nil || !id.Equal(m) {
		t.Error("r=0 dilation should be identity")
	}
	id.Set(1, 0, 0)
	if m.At(0, 0) != 0 {
		t.Error("r=0 dilation must copy, not alias")
	}
}

func TestErodeShrinksBlob(t *testing.T) {
	m := tensor.MustNew(7, 7)
	for y := 2; y <= 4; y++ {
		for x := 2; x <= 4; x++ {
			m.Set(1, y, x)
		}
	}
	e, err := Erode(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A 3×3 block erodes to its centre.
	if e.Sum() != 1 || e.At(3, 3) != 1 {
		t.Errorf("eroded mass = %v", e.Sum())
	}
}

func TestMorphologyValidation(t *testing.T) {
	if _, err := Dilate(tensor.MustNew(4), 1); err == nil {
		t.Error("rank-1 dilate should fail")
	}
	if _, err := Erode(tensor.MustNew(2, 2), -1); err == nil {
		t.Error("negative radius should fail")
	}
	if _, err := FillHoles(tensor.MustNew(4)); err == nil {
		t.Error("rank-1 fill should fail")
	}
}

func TestFillHolesClosedRing(t *testing.T) {
	// A closed square ring: the interior fills, the exterior does not.
	m := tensor.MustNew(9, 9)
	for i := 2; i <= 6; i++ {
		m.Set(1, 2, i)
		m.Set(1, 6, i)
		m.Set(1, i, 2)
		m.Set(1, i, 6)
	}
	f, err := FillHoles(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(4, 4) != 1 {
		t.Error("interior should be filled")
	}
	if f.At(0, 0) != 0 || f.At(8, 8) != 0 {
		t.Error("exterior should stay empty")
	}
	// 5×5 solid block = 25 pixels.
	if f.Sum() != 25 {
		t.Errorf("filled mass = %v, want 25", f.Sum())
	}
}

func TestFillHolesOpenRingLeaks(t *testing.T) {
	// Break the ring: the "interior" connects to the border and must NOT
	// fill (this is what the dilation step in QualifyEdgeMap guards).
	m := tensor.MustNew(9, 9)
	for i := 2; i <= 6; i++ {
		m.Set(1, 2, i)
		m.Set(1, 6, i)
		m.Set(1, i, 2)
		m.Set(1, i, 6)
	}
	m.Set(0, 4, 2) // gap
	f, err := FillHoles(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(4, 4) != 0 {
		t.Error("open ring interior should leak to the border")
	}
}

// Property: dilation never removes pixels; erosion never adds them; both are
// monotone in mass.
func TestQuickMorphologyMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := tensor.MustNew(8, 8)
		for i := range m.Data() {
			if r.Float32() < 0.3 {
				m.Data()[i] = 1
			}
		}
		d, err := Dilate(m, 1)
		if err != nil {
			return false
		}
		e, err := Erode(m, 1)
		if err != nil {
			return false
		}
		for i := range m.Data() {
			if m.Data()[i] == 1 && d.Data()[i] != 1 {
				return false // dilation removed a pixel
			}
			if m.Data()[i] == 0 && e.Data()[i] != 0 {
				return false // erosion added a pixel
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: FillHoles is idempotent and never removes foreground.
func TestQuickFillHolesIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := tensor.MustNew(8, 8)
		for i := range m.Data() {
			if r.Float32() < 0.4 {
				m.Data()[i] = 1
			}
		}
		f1, err := FillHoles(m)
		if err != nil {
			return false
		}
		f2, err := FillHoles(f1)
		if err != nil {
			return false
		}
		if !f1.Equal(f2) {
			return false
		}
		for i := range m.Data() {
			if m.Data()[i] == 1 && f1.Data()[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
