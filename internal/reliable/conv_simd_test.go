package reliable

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// specials are the values planted among the random operands: NaN, both
// infinities, both zeros and subnormals, so that a vector pass which lets a
// masked-off lane change (−0 + 0 = +0, Inf·0 = NaN) or flushes subnormals
// shows.
var specials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0,
	math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32, 1.5e-39,
}

// fillOperand fills t with non-dyadic values — full 24-bit significands, so
// a product rounded before its add and a fused multiply-add differ in the
// low bits — and, when special is set, plants a special value in about one
// element in eight.
func fillOperand(t *tensor.Tensor, rng *rand.Rand, special bool) {
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
		if special && rng.Intn(8) == 0 {
			d[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// sameFloat is bit equality, except that any NaN equals any NaN: a NaN in
// either pass makes convRowDMR replay the row per operation, so which NaN
// payload a pass produced never reaches an output.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// refRow is the per-element reference: output column ox starts at the bias
// and adds float32(in·w) for every in-image tap in (c, ky, kx) order.
func refRow(g *convGeom, f, oy, ox int) float32 {
	var acc float32
	if g.bias != nil {
		acc = g.bias[f]
	}
	for c := 0; c < g.inC; c++ {
		for ky := 0; ky < g.kh; ky++ {
			iy := oy*g.stride - g.pad + ky
			if iy < 0 || iy >= g.inH {
				continue
			}
			for kx := 0; kx < g.kw; kx++ {
				ix := ox*g.stride - g.pad + kx
				if ix < 0 || ix >= g.inW {
					continue
				}
				w := g.fl[((f*g.inC+c)*g.kh+ky)*g.kw+kx]
				acc += float32(g.in[(c*g.inH+iy)*g.inW+ix] * w)
			}
		}
	}
	return acc
}

// checkRowPass runs every row of a stride-1 convolution through convRowPass
// (the vector kernel where this build and CPU have it) and through the Go
// loop, and requires both to equal the per-element reference bit for bit.
// On a build without the kernel the first two are the same loop and the
// reference is what is checked.
func checkRowPass(t *testing.T, rng *rand.Rand, c, h, w, nf, k, pad int, withBias, special bool) {
	t.Helper()
	input := tensor.MustNew(c, h, w)
	fillOperand(input, rng, special)
	filters := tensor.MustNew(nf, c, k, k)
	fillOperand(filters, rng, special && rng.Intn(4) == 0)
	var bias []float32
	if withBias {
		b := tensor.MustNew(nf)
		fillOperand(b, rng, special)
		bias = b.Data()
	}
	spec := ConvSpec{Stride: 1, Pad: pad}
	outH, outW, err := spec.Validate(input, filters)
	if err != nil {
		t.Fatal(err)
	}
	g := newConvGeom(input, filters, bias, spec, outW, nil)
	loop := g
	if rowAsm {
		g.setMasks(nil, outW)
	}
	got := make([]float32, outW)
	want := make([]float32, outW)
	for f := 0; f < nf; f++ {
		for oy := 0; oy < outH; oy++ {
			for i := range got {
				// Both passes must write every column.
				got[i], want[i] = 17, -17
			}
			convRowPass(got, &g, f, oy)
			convRowPass(want, &loop, f, oy) // no mask table: the Go loop
			for ox := range got {
				ref := refRow(&loop, f, oy, ox)
				if !sameFloat(got[ox], want[ox]) || !sameFloat(want[ox], ref) {
					t.Fatalf("c%d h%d w%d k%d pad %d bias %v: row (%d,%d) column %d: pass %v (%#x), Go loop %v (%#x), reference %v (%#x)",
						c, h, w, k, pad, withBias, f, oy, ox,
						got[ox], math.Float32bits(got[ox]), want[ox], math.Float32bits(want[ox]),
						ref, math.Float32bits(ref))
				}
			}
		}
	}
}

// TestConvRowPassMatchesGoLoop: the row pass convRowDMR runs is the Go loop
// bit for bit over input widths 1…70 — output rows of one to three 32-lane
// blocks, every tail mask — pads 0–3 and kernels 1–7, with and without
// bias, on non-dyadic operands, half of the shapes with NaN, ±Inf, −0 and
// subnormals planted among them; and on empty inputs (no channel, no
// column), whose rows are their bias.
func TestConvRowPassMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	checkRowPass(t, rng, 0, 4, 6, 2, 3, 1, true, false)
	checkRowPass(t, rng, 2, 4, 0, 2, 3, 2, true, false)
	for w := 1; w <= 70; w++ {
		for k := 1; k <= 7; k++ {
			for pad := 0; pad <= 3; pad++ {
				if w+2*pad < k {
					continue
				}
				c, h := 1+rng.Intn(3), max(1, k-2*pad)+rng.Intn(2)
				for i, withBias := range []bool{false, true} {
					checkRowPass(t, rng, c, h, w, 2, k, pad, withBias, (w+k+i)%2 == 0)
				}
			}
		}
	}
}

// FuzzConvRowPass is TestConvRowPassMatchesGoLoop's oracle over fuzzed
// shapes and operands.
func FuzzConvRowPass(f *testing.F) {
	f.Add(int64(1), uint8(28), uint8(5), uint8(0), uint8(3), uint8(4), true, false)
	f.Add(int64(2), uint8(33), uint8(3), uint8(1), uint8(1), uint8(1), false, true)
	f.Add(int64(3), uint8(70), uint8(7), uint8(3), uint8(2), uint8(4), true, true)
	f.Fuzz(func(t *testing.T, seed int64, w, k, pad, c, h uint8, withBias, special bool) {
		width, kk, pp := 1+int(w)%80, 1+int(k)%7, int(pad)%4
		cc, hh := 1+int(c)%3, 1+int(h)%8
		if width+2*pp < kk || hh+2*pp < kk {
			t.Skip("kernel does not fit")
		}
		checkRowPass(t, rand.New(rand.NewSource(seed)), cc, hh, width, 2, kk, pp, withBias, special)
	})
}
