package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The inference kernels (LRN, stride-2 max-pool, ReLU) against their Go
// loops, bit for bit. On a build or host without the kernels both sides
// run the Go loop and the tests check only the dispatch.

// kernelSpecials are the values planted among random activations: NaN,
// both infinities, both zeros (ties that max and the ReLU clamp must break
// the Go loop's way), subnormals and values whose square underflows or
// overflows float32.
var kernelSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0,
	math.SmallestNonzeroFloat32, -3 * math.SmallestNonzeroFloat32, 1.5e-39,
	1e-25, -2e20, math.MaxFloat32,
}

// fillSpecial fills d with N(0,1)·scale values — full 24-bit significands —
// and, when special, plants a kernelSpecials value in about one element in
// eight and runs of ±0 ties in about one in sixteen.
func fillSpecial(d []float32, rng *rand.Rand, scale float64, special bool) {
	for i := range d {
		d[i] = float32(rng.NormFloat64() * scale)
		if !special {
			continue
		}
		switch rng.Intn(16) {
		case 0, 1:
			d[i] = kernelSpecials[rng.Intn(len(kernelSpecials))]
		case 2:
			d[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		}
	}
}

// sameBits is bit equality: a NaN must match in payload and sign, a zero in
// sign.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b)
}

// lrnDispatch runs one CHW sample through what an inference forward runs:
// the kernel where l.simd holds, else the Go loop.
func lrnDispatch(l *LRN, in, od []float32, c, hw int) {
	if l.simd(hw) {
		l.normalizeSIMD(in, od, c, hw)
		return
	}
	l.normalize(in, od, c, hw, nil, nil)
}

// checkLRNKernel compares the inference LRN of one (c, h, w) sample with
// normalize's Go loop bit for bit, NaN payloads included (the kernel keeps
// the compiled loop's operand order; see kernels_amd64.s).
func checkLRNKernel(t *testing.T, l *LRN, in []float32, c, h, w int) {
	t.Helper()
	hw := h * w
	got := make([]float32, c*hw)
	want := make([]float32, c*hw)
	for i := range got {
		got[i], want[i] = 17, -17 // both passes must write every element
	}
	lrnDispatch(l, in, got, c, hw)
	l.normalize(in, want, c, hw, nil, nil)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("lrn n=%d c%d h%d w%d: element %d (x=%v): kernel %v (%#x), Go loop %v (%#x)",
				l.n, c, h, w, i, in[i], got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestLRNKernelMatchesGoLoop: AlexNet's two normalisation shapes, the micro
// net's, odd widths on both sides of every 8-lane tail, fewer channels than
// the window, windows 1 to 7 and constants that reach the subnormal and
// overflow ends of the denominator, with and without planted specials.
func TestLRNKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{
		{96, 55, 55}, {256, 27, 27}, {16, 28, 28}, {16, 14, 14},
		{3, 1, 1}, {2, 4, 5}, {1, 1, 7}, {4, 1, 13}, {7, 3, 3}, {5, 2, 9}, {9, 1, 17},
	}
	for w := 1; w <= 20; w++ {
		shapes = append(shapes, [3]int{6, 1, w})
	}
	type lrnCase struct {
		l     *LRN
		scale float64 // of the random activations
	}
	cases := []lrnCase{{NewAlexNetLRN("lrn"), 1}}
	for _, p := range []struct {
		n               int
		k, alpha, scale float64
	}{{1, 2, 1e-4, 1}, {3, 1, 0.5, 1}, {7, 0, 1, 1e-20}, {5, 0, 3, 1e18}} {
		l, err := NewLRN("lrn", p.n, p.k, p.alpha, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, lrnCase{l, p.scale})
	}
	for _, s := range shapes {
		c, h, w := s[0], s[1], s[2]
		in := make([]float32, c*h*w)
		for _, tc := range cases {
			for _, special := range []bool{false, true} {
				fillSpecial(in, rng, tc.scale, special)
				checkLRNKernel(t, tc.l, in, c, h, w)
			}
		}
	}
}

// TestLRNForwardKernelDispatch: an inference ForwardBatch equals a training
// one (which always runs the Go loop) bit for bit, β = 0.75 on the kernel
// and any other β on the Go loop.
func TestLRNForwardKernelDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, l := range []*LRN{NewAlexNetLRN("lrn"), generalLRN(t, 0.5)} {
		x := tensor.MustNew(3, 16, 11, 13)
		fillSpecial(x.Data(), rng, 1, true)
		infer, err := l.ForwardBatch(NewContext(), x)
		if err != nil {
			t.Fatal(err)
		}
		train, err := l.ForwardBatch(trainCtx(), x)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range infer.Data() {
			if w := train.Data()[i]; !sameBits(v, w) {
				t.Fatalf("β=%v element %d: inference %v, training %v", l.beta, i, v, w)
			}
		}
	}
}

// poolDispatch runs one plane through what an inference forward at stride 2
// runs: the kernels where the host has them, else poolPlane.
func poolDispatch(p *MaxPool2D, in, out []float32, h, w, outH, outW int) {
	if kernelAsm && p.stride == 2 {
		ew := splitWidth(outW, p.k)
		poolPlaneSIMD(in, out, make([]float32, 2*h*ew), h, w, outH, outW, p.k, ew)
		return
	}
	p.poolPlane(in, out, nil, 0, 0, w, outH, outW)
}

// checkPoolKernel compares the stride-2 k×k pool of one random plane with
// poolPlane's Go loop, bit for bit: a pool output is never NaN (the loop
// keeps −Inf or an earlier value over a NaN), so there is no payload to
// excuse, and a ±0 tie must keep the earlier tap's sign.
func checkPoolKernel(t *testing.T, in []float32, k, h, w int) {
	t.Helper()
	p, err := NewMaxPool2D("pool", k, 2)
	if err != nil {
		t.Fatal(err)
	}
	outH, outW := (h-k)/2+1, (w-k)/2+1
	got := make([]float32, outH*outW)
	want := make([]float32, outH*outW)
	for i := range got {
		got[i], want[i] = 17, -17
	}
	poolDispatch(p, in, got, h, w, outH, outW)
	p.poolPlane(in, want, nil, 0, 0, w, outH, outW)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("pool k%d h%d w%d: output (%d,%d): kernel %v (%#x), Go loop %v (%#x)",
				k, h, w, i/outW, i%outW, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestMaxPoolKernelMatchesGoLoop: AlexNet's three pools (3×3 over 55, 27
// and 13), the micro net's 2×2 over 28 and 14, and every width 1…40 (every
// split tail, every 8-output tail) at windows 1 to 4, over random planes
// with planted NaN, ±Inf, ±0 ties and subnormals, and over all-NaN and
// all-±0 planes.
func TestMaxPoolKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	type shape struct{ k, h, w int }
	shapes := []shape{{3, 55, 55}, {3, 27, 27}, {3, 13, 13}, {2, 28, 28}, {2, 14, 14}}
	for k := 1; k <= 4; k++ {
		for w := k; w <= 40; w++ {
			shapes = append(shapes, shape{k, k + rng.Intn(4), w})
		}
	}
	for _, s := range shapes {
		in := make([]float32, s.h*s.w)
		for _, special := range []bool{false, true} {
			fillSpecial(in, rng, 1, special)
			checkPoolKernel(t, in, s.k, s.h, s.w)
		}
		for _, v := range []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1))} {
			for i := range in {
				in[i] = v
				if v == 0 && rng.Intn(2) == 0 {
					in[i] = -in[i]
				}
			}
			checkPoolKernel(t, in, s.k, s.h, s.w)
		}
	}
}

// TestMaxPoolForwardKernelDispatch: an inference ForwardBatch equals a
// training one (always the Go loop) bit for bit over a batch of planes, and
// a second, smaller batch through the same context reuses the split scratch.
func TestMaxPoolForwardKernelDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ctx := NewContext()
	for _, p := range []struct{ k, stride, n, c, h, w int }{
		{3, 2, 2, 5, 27, 27}, {2, 2, 3, 4, 28, 28}, {2, 2, 1, 2, 9, 11}, {3, 1, 2, 3, 8, 9},
	} {
		pool, err := NewMaxPool2D("pool", p.k, p.stride)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.MustNew(p.n, p.c, p.h, p.w)
		fillSpecial(x.Data(), rng, 1, true)
		infer, err := pool.ForwardBatch(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		train, err := pool.ForwardBatch(trainCtx(), x)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range infer.Data() {
			if w := train.Data()[i]; !sameBits(v, w) {
				t.Fatalf("k%d stride %d element %d: inference %v, training %v", p.k, p.stride, i, v, w)
			}
		}
	}
}

// TestReLUKernelMatchesGoLoop: the in-place inference clamp equals
// clampLoop bit for bit at every length 0…100 (every 32-, 8- and masked
// tail) and at AlexNet's conv1 size, over planted NaN, ±Inf, ±0 and
// subnormals: NaN and −0 must come out +0, like the loop's.
func TestReLUKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	lengths := []int{96 * 55 * 55}
	for n := 0; n <= 100; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		// One guard element each side: the kernel writes exactly n.
		buf := make([]float32, n+2)
		fillSpecial(buf, rng, 1, true)
		want := append([]float32(nil), buf...)
		clampInPlace(buf[1 : n+1])
		clampLoop(want[1 : n+1])
		for i := range buf {
			if !sameBits(buf[i], want[i]) {
				t.Fatalf("relu n=%d: element %d: kernel %v (%#x), Go loop %v (%#x)",
					n, i-1, buf[i], math.Float32bits(buf[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// floatsFromBytes reads little-endian float32 bit patterns from data
// (zero-padded to n values), so the fuzzer reaches every encoding: NaN
// payloads, both zeros, subnormals, infinities.
func floatsFromBytes(data []byte, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		var b [4]byte
		if 4*i < len(data) {
			copy(b[:], data[4*i:])
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return out
}

// FuzzLRNKernel: any sample of up to 9 channels of up to 12×12 and any
// odd window, with activations taken bit for bit from the fuzzer's bytes,
// normalises identically on the kernel and the Go loop.
func FuzzLRNKernel(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0x80, 1, 0, 0, 0}, uint8(5), uint8(3), uint8(3), uint8(9), uint8(2))
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0xff, 0xff, 0x7f, 0x7f}, uint8(3), uint8(1), uint8(1), uint8(13), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, n, c, h, w, k uint8) {
		win := 2*int(n%4) + 1
		cc, hh, ww := int(c%9)+1, int(h%12)+1, int(w%12)+1
		l, err := NewLRN("lrn", win, float64(k%4), 1e-4*float64(int(k)+1), 0.75)
		if err != nil {
			t.Fatal(err)
		}
		checkLRNKernel(t, l, floatsFromBytes(data, cc*hh*ww), cc, hh, ww)
	})
}

// FuzzMaxPoolKernel: any plane up to 24×40 and window 1 to 4 at stride 2,
// with values taken bit for bit from the fuzzer's bytes, pools identically
// on the kernels and the Go loop, and the in-place ReLU clamp of the same
// values — the other VMAXPS kernel — equals clampLoop.
func FuzzMaxPoolKernel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff}, uint8(2), uint8(4), uint8(4))
	f.Add([]byte{0, 0, 0xc0, 0x7f, 0, 0, 0, 0x80}, uint8(3), uint8(5), uint8(19))
	f.Fuzz(func(t *testing.T, data []byte, k, h, w uint8) {
		kk := int(k%4) + 1
		hh, ww := kk+int(h%24), kk+int(w%40)
		in := floatsFromBytes(data, hh*ww)
		checkPoolKernel(t, in, kk, hh, ww)
		got := append([]float32(nil), in...)
		clampInPlace(got)
		clampLoop(in)
		for i := range got {
			if !sameBits(got[i], in[i]) {
				t.Fatalf("relu element %d: kernel %#x, Go loop %#x", i, math.Float32bits(got[i]), math.Float32bits(in[i]))
			}
		}
	})
}
