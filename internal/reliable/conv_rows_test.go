package reliable

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// scalarIdeal is fault.Ideal under another dynamic type: NewEngine keeps
// every engine built on it on the per-operation path, which makes it the
// oracle for the row path with no knob in the production code.
type scalarIdeal struct{ fault.Ideal }

// dmrPair builds one engine on the row path and one on the scalar path for
// the same redundancy mode, each with its own bucket from mkBucket.
func dmrPair(t *testing.T, spatial bool, mkBucket func() *LeakyBucket) (rows, scalar *Engine) {
	t.Helper()
	build := func(a, b fault.ALU) *Engine {
		var ops Ops
		var err error
		if spatial {
			ops, err = NewSpatialDMR(a, b)
		} else {
			ops, err = NewTemporalDMR(a)
		}
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(ops, mkBucket())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rows = build(fault.Ideal{}, fault.Ideal{})
	scalar = build(scalarIdeal{}, scalarIdeal{})
	if !rows.rows || scalar.rows {
		t.Fatalf("row path selection: ideal %v, oracle %v", rows.rows, scalar.rows)
	}
	return rows, scalar
}

func dmrName(spatial bool) string {
	if spatial {
		return "spatial-dmr"
	}
	return "temporal-dmr"
}

// sameRun requires the two engines' Conv2D results to be indistinguishable:
// output bits, error text, Stats and bucket snapshot.
func sameRun(t *testing.T, what string, rows, scalar *Engine, got, want *tensor.Tensor, gotErr, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: row path err %v, scalar err %v", what, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text\n row    %q\n scalar %q", what, gotErr, wantErr)
		}
	default:
		gd, wd := got.Data(), want.Data()
		for i := range wd {
			if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
				t.Fatalf("%s: output %d = %v (%#x), scalar %v (%#x)", what, i,
					gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
			}
		}
	}
	if rows.Stats() != scalar.Stats() {
		t.Fatalf("%s: stats %+v, scalar %+v", what, rows.Stats(), scalar.Stats())
	}
	if rows.Bucket().Snapshot() != scalar.Bucket().Snapshot() {
		t.Fatalf("%s: bucket %+v, scalar %+v", what, rows.Bucket().Snapshot(), scalar.Bucket().Snapshot())
	}
}

// TestReliableConvRowsMatchScalar: on fault-free DMR the row path is the
// per-operation kernel bit for bit — output, Stats and bucket — over random
// shapes, strides, paddings (kernels wider than the input included), with
// and without bias and from a bucket that starts partly full.
func TestReliableConvRowsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type shape struct{ c, h, w, f, k, stride, pad int }
	shapes := []shape{
		{c: 1, h: 2, w: 3, f: 2, k: 5, stride: 1, pad: 2}, // kernel larger than the input
		{c: 2, h: 1, w: 1, f: 1, k: 3, stride: 2, pad: 1},
		{c: 3, h: 32, w: 32, f: 4, k: 5, stride: 1, pad: 0}, // the demo conv1 shape, fewer filters
	}
	for len(shapes) < 240 {
		s := shape{
			c: 1 + rng.Intn(4), f: 1 + rng.Intn(3), k: 1 + rng.Intn(5),
			stride: 1 + rng.Intn(3), pad: rng.Intn(3),
		}
		s.h, s.w = 1+rng.Intn(12), 1+rng.Intn(12)
		if s.h+2*s.pad < s.k || s.w+2*s.pad < s.k {
			continue
		}
		shapes = append(shapes, s)
	}
	for i, s := range shapes {
		input := tensor.MustNew(s.c, s.h, s.w)
		input.FillUniform(rng, -1, 1)
		filters := tensor.MustNew(s.f, s.c, s.k, s.k)
		filters.FillUniform(rng, -1, 1)
		var bias []float32
		if i%2 == 1 {
			bias = make([]float32, s.f)
			for j := range bias {
				bias[j] = rng.Float32()*2 - 1
			}
		}
		spec := ConvSpec{Stride: s.stride, Pad: s.pad}
		for _, spatial := range []bool{false, true} {
			rows, scalar := dmrPair(t, spatial, NewDefaultBucket)
			if i%3 == 0 {
				// Start one error up: OKn must drain the level as OK does.
				rows.Bucket().Fail()
				scalar.Bucket().Fail()
			}
			got, gotErr := Conv2D(rows, input, filters, bias, spec)
			want, wantErr := Conv2D(scalar, input, filters, bias, spec)
			if wantErr != nil {
				t.Fatalf("shape %+v: %v", s, wantErr)
			}
			sameRun(t, dmrName(spatial), rows, scalar, got, want, gotErr, wantErr)
		}
	}
}

// TestReliableConvRowsNonFinite: on a fault-free ALU the two row passes can
// disagree only through NaN, and NaN is sticky, so a row's result is NaN
// exactly when one of its operations produced NaN — the operation whose
// comparison fails on the scalar path. The replay must then reproduce the
// scalar path's trip: same coordinate and attempt counts in the error, same
// Stats, same bucket. A lone infinity is not a disagreement.
func TestReliableConvRowsNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	cases := []struct {
		name   string
		set    func(in, w *tensor.Tensor, bias []float32)
		bucket func() *LeakyBucket
		trips  bool
	}{
		{name: "NaN pixel", trips: true, set: func(in, _ *tensor.Tensor, _ []float32) {
			in.Set(nan, 1, 4, 5)
		}},
		{name: "+Inf pixel under a zero weight", trips: true, set: func(in, w *tensor.Tensor, _ []float32) {
			in.Set(inf, 0, 3, 3)
			w.Set(0, 1, 0, 1, 2)
		}},
		{name: "+Inf and -Inf in one window", trips: true, set: func(in, _ *tensor.Tensor, _ []float32) {
			in.Set(inf, 0, 5, 2)
			in.Set(-inf, 1, 5, 3)
		}},
		{name: "NaN bias", trips: true, set: func(_, _ *tensor.Tensor, bias []float32) {
			bias[1] = nan
		}},
		{name: "NaN pixel, lenient bucket", trips: true, set: func(in, _ *tensor.Tensor, _ []float32) {
			in.Set(nan, 0, 6, 6)
		}, bucket: func() *LeakyBucket {
			b, err := NewLeakyBucket(1, 5)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{name: "+Inf pixel alone", set: func(in, _ *tensor.Tensor, _ []float32) {
			in.Set(inf, 2, 4, 4)
		}},
	}
	for _, tc := range cases {
		for _, spatial := range []bool{false, true} {
			// Positive operands, so only the planted values make a NaN.
			rng := rand.New(rand.NewSource(7))
			input := tensor.MustNew(3, 9, 9)
			input.FillUniform(rng, 0.5, 1)
			filters := tensor.MustNew(3, 3, 3, 3)
			filters.FillUniform(rng, 0.5, 1)
			bias := []float32{0.25, 0.5, 0.75}
			tc.set(input, filters, bias)
			mk := tc.bucket
			if mk == nil {
				mk = NewDefaultBucket
			}
			rows, scalar := dmrPair(t, spatial, mk)
			spec := ConvSpec{Stride: 1, Pad: 1}
			got, gotErr := Conv2D(rows, input, filters, bias, spec)
			want, wantErr := Conv2D(scalar, input, filters, bias, spec)
			what := tc.name + "/" + dmrName(spatial)
			if tc.trips != errors.Is(wantErr, ErrBucketTripped) {
				t.Fatalf("%s: scalar err %v, want trip %v", what, wantErr, tc.trips)
			}
			if tc.trips && !errors.Is(gotErr, ErrBucketTripped) {
				t.Fatalf("%s: row path err %v does not wrap ErrBucketTripped", what, gotErr)
			}
			sameRun(t, what, rows, scalar, got, want, gotErr, wantErr)
		}
	}
}

// TestBucketOKn: OKn(n) is n calls to OK from every level, tripped or not.
func TestBucketOKn(t *testing.T) {
	for _, fc := range [][2]int{{2, 3}, {1, 1}, {1, 5}, {3, 7}} {
		for level := 0; level <= fc[1]; level++ {
			for n := uint64(0); n <= uint64(fc[1])+2; n++ {
				a, _ := NewLeakyBucket(fc[0], fc[1])
				b, _ := NewLeakyBucket(fc[0], fc[1])
				for _, x := range []*LeakyBucket{a, b} {
					x.level, x.peak, x.errors, x.oks = level, level, 9, 4
					x.tripped = level >= fc[1]
				}
				a.OKn(n)
				for i := uint64(0); i < n; i++ {
					b.OK()
				}
				if a.Snapshot() != b.Snapshot() {
					t.Fatalf("factor %d ceiling %d level %d: OKn(%d) = %+v, %d × OK = %+v",
						fc[0], fc[1], level, n, a.Snapshot(), n, b.Snapshot())
				}
			}
		}
	}
}

// TestConv2DIntoReusesOutput: given a tensor of the output's shape,
// Conv2DInto writes every element of it — an output pre-filled with NaN
// comes back equal to Conv2D's fresh one bit for bit, on the row path and
// the scalar path, with the same Stats — and returns that same tensor; any
// other shape (or nil) gets a fresh output and leaves the tensor given alone.
func TestConv2DIntoReusesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	input := tensor.MustNew(3, 12, 13)
	input.FillUniform(rng, -1, 1)
	filters := tensor.MustNew(4, 3, 5, 5)
	filters.FillUniform(rng, -1, 1)
	bias := []float32{0.5, -0.25, 0, 1}
	spec := ConvSpec{Stride: 1, Pad: 1}
	rows, scalar := dmrPair(t, false, NewDefaultBucket)
	for _, e := range []*Engine{rows, scalar} {
		want, err := Conv2D(e, input, filters, bias, spec)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := e.Stats()
		out := tensor.MustNew(4, 10, 11)
		for i := range out.Data() {
			out.Data()[i] = float32(math.NaN())
		}
		got, err := Conv2DInto(e, out, input, filters, bias, spec)
		if err != nil {
			t.Fatal(err)
		}
		if got != out {
			t.Fatalf("rows=%v: Conv2DInto did not write into the output of matching shape", e.rows)
		}
		for i, v := range want.Data() {
			if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
				t.Fatalf("rows=%v: element %d = %v, Conv2D %v", e.rows, i, got.Data()[i], v)
			}
		}
		if d := e.Stats().Ops - wantStats.Ops; d != wantStats.Ops {
			t.Fatalf("rows=%v: Conv2DInto booked %d ops, Conv2D %d", e.rows, d, wantStats.Ops)
		}
		other := tensor.MustNew(4, 11, 10)
		fresh, err := Conv2DInto(e, other, input, filters, bias, spec)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == other || !fresh.SameShape(want) {
			t.Fatalf("rows=%v: mismatched output %v reused or wrong shape %v", e.rows, other.Shape(), fresh.Shape())
		}
		for _, v := range other.Data() {
			if v != 0 {
				t.Fatalf("rows=%v: a mismatched output was written", e.rows)
			}
		}
	}
}
