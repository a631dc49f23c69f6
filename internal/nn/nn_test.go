package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// dotAll computes Σ out·G, the scalar loss used by the numerical gradient
// checks.
func dotAll(t *testing.T, out, g *tensor.Tensor) float64 {
	t.Helper()
	d, err := out.Dot(g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// forward1 runs one sample through layer as a batch of one (the only way a
// layer runs) and returns row 0 of the output.
func forward1(ctx *Context, layer Layer, x *tensor.Tensor) (*tensor.Tensor, error) {
	batch, err := tensor.Pack([]*tensor.Tensor{x})
	if err != nil {
		return nil, err
	}
	out, err := layer.ForwardBatch(ctx, batch)
	if err != nil {
		return nil, err
	}
	return out.Sample(0)
}

// backward1 is forward1's counterpart: one sample's output gradient in, that
// sample's input gradient out.
func backward1(ctx *Context, layer Layer, g *tensor.Tensor) (*tensor.Tensor, error) {
	batch, err := tensor.Pack([]*tensor.Tensor{g})
	if err != nil {
		return nil, err
	}
	dx, err := layer.BackwardBatch(ctx, batch)
	if err != nil {
		return nil, err
	}
	return dx.Sample(0)
}

// trainCtx returns a training-mode context: the only kind whose forward
// pass arms the backward cache.
func trainCtx() *Context {
	ctx := NewContext()
	ctx.SetTraining(true)
	return ctx
}

// gradCheck verifies a layer's BackwardBatch against central differences of
// ForwardBatch, for both the input gradient and every parameter gradient —
// the oracle for the backward kernels that is independent of them. x is a
// batch; callers check N=1 and N=3. Checks a sample of indices to stay fast.
func gradCheck(t *testing.T, layer Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	ctx := trainCtx()
	rng := rand.New(rand.NewSource(99))
	out, err := layer.ForwardBatch(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	upstream := tensor.MustNew(out.Shape()...)
	upstream.FillUniform(rng, -1, 1)

	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	dx, err := layer.BackwardBatch(ctx, upstream)
	if err != nil {
		t.Fatal(err)
	}

	const h = 1e-2
	checkTensor := func(name string, value, analytic *tensor.Tensor) {
		n := value.Len()
		step := n/17 + 1 // sample ~17 indices
		for i := 0; i < n; i += step {
			orig := value.Data()[i]
			value.Data()[i] = orig + h
			o1, err := layer.ForwardBatch(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			f1 := dotAll(t, o1, upstream)
			value.Data()[i] = orig - h
			o2, err := layer.ForwardBatch(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			f2 := dotAll(t, o2, upstream)
			value.Data()[i] = orig

			num := (f1 - f2) / (2 * h)
			ana := float64(analytic.Data()[i])
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > tol {
				t.Errorf("%s (batch %d) grad[%d]: analytic %v vs numeric %v", name, x.Dim(0), i, ana, num)
			}
		}
	}
	checkTensor("input", x, dx)
	for _, p := range layer.Params() {
		checkTensor(p.Name, p.Value, p.Grad)
	}
}

func TestConvForwardIdentityKernel(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(1))
	c, err := NewConv2D("c", 1, 1, 1, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	c.Weight().Fill(1) // 1×1 kernel of 1 = identity
	c.Bias().Fill(0)
	x := tensor.MustFromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	out, err := forward1(ctx, c, x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllClose(x, 1e-6) {
		t.Error("1×1 unit kernel should be identity")
	}
}

func TestConvForwardKnownValues(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(2))
	c, err := NewConv2D("c", 1, 1, 2, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Kernel [[1,0],[0,1]]: out[y][x] = in[y][x] + in[y+1][x+1].
	copy(c.Weight().Data(), []float32{1, 0, 0, 1})
	c.Bias().Data()[0] = 10
	x := tensor.MustFromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out, err := forward1(ctx, c, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{16, 18, 22, 24} // +10 bias
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
}

func TestConvStridePad(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(3))
	c, err := NewConv2D("c", 2, 3, 3, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(2, 7, 7)
	x.FillUniform(rng, -1, 1)
	out, err := forward1(ctx, c, x)
	if err != nil {
		t.Fatal(err)
	}
	// (7+2−3)/2+1 = 4
	if out.Dim(0) != 3 || out.Dim(1) != 4 || out.Dim(2) != 4 {
		t.Errorf("shape = %v, want [3 4 4]", out.Shape())
	}
}

func TestConvValidation(t *testing.T) {
	ctx := trainCtx()
	rng := rand.New(rand.NewSource(4))
	if _, err := NewConv2D("c", 0, 1, 3, 1, 0, rng); err == nil {
		t.Error("zero in-channels should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 0, 1, 0, rng); err == nil {
		t.Error("zero kernel should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 3, 0, 0, rng); err == nil {
		t.Error("zero stride should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 3, 1, -1, rng); err == nil {
		t.Error("negative pad should fail")
	}
	if _, err := NewConv2D("c", 1, 1, 3, 1, 0, nil); err == nil {
		t.Error("nil rng should fail")
	}
	c, _ := NewConv2D("c", 2, 1, 3, 1, 0, rng)
	if _, err := forward1(ctx, c, tensor.MustNew(3, 5, 5)); err == nil {
		t.Error("channel mismatch should fail")
	}
	if _, err := forward1(ctx, c, tensor.MustNew(2, 2, 2)); err == nil {
		t.Error("too-small input should fail")
	}
	if _, err := backward1(ctx, c, tensor.MustNew(1, 1, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := forward1(ctx, c, tensor.MustNew(2, 5, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := backward1(ctx, c, tensor.MustNew(9, 9, 9)); err == nil {
		t.Error("wrong gradient shape should fail")
	}
}

func TestConvGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewConv2D("c", 2, 3, 3, 2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		x := tensor.MustNew(n, 2, 6, 6)
		x.FillUniform(rng, -1, 1)
		gradCheck(t, c, x, 5e-2)
	}
}

func TestConvAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, _ := NewConv2D("c", 3, 8, 5, 2, 1, rng)
	if c.Filters() != 8 || c.Kernel() != 5 || c.InChannels() != 3 || c.Stride() != 2 || c.Pad() != 1 {
		t.Error("accessors wrong")
	}
	if len(c.Params()) != 2 {
		t.Error("conv should expose weight and bias")
	}
}

func TestMaxPool(t *testing.T) {
	ctx := trainCtx()
	p, err := NewMaxPool2D("p", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 9,
	}, 1, 4, 4)
	out, err := forward1(ctx, p, x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 8, -1, 9}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Errorf("pool out[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
	// Backward routes to argmax.
	g := tensor.MustFromSlice([]float32{10, 20, 30, 40}, 1, 2, 2)
	dx, err := backward1(ctx, p, g)
	if err != nil {
		t.Fatal(err)
	}
	if dx.At(0, 1, 1) != 10 || dx.At(0, 1, 3) != 20 || dx.At(0, 2, 0) != 30 || dx.At(0, 3, 3) != 40 {
		t.Errorf("pool backward wrong: %v", dx.Data())
	}
	if dx.Sum() != 100 {
		t.Errorf("pool backward should conserve gradient mass, got %v", dx.Sum())
	}
}

func TestMaxPoolValidation(t *testing.T) {
	ctx := trainCtx()
	if _, err := NewMaxPool2D("p", 0, 1); err == nil {
		t.Error("window 0 should fail")
	}
	if _, err := NewMaxPool2D("p", 2, 0); err == nil {
		t.Error("stride 0 should fail")
	}
	p, _ := NewMaxPool2D("p", 3, 2)
	if _, err := forward1(ctx, p, tensor.MustNew(4)); err == nil {
		t.Error("rank-1 input should fail")
	}
	if _, err := forward1(ctx, p, tensor.MustNew(1, 2, 2)); err == nil {
		t.Error("too-small input should fail")
	}
	if _, err := backward1(ctx, p, tensor.MustNew(1, 1, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
}

func TestReLU(t *testing.T) {
	ctx := trainCtx()
	r := NewReLU("r")
	x := tensor.MustFromSlice([]float32{-1, 0, 2}, 3)
	out, err := forward1(ctx, r, x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 0 || out.Data()[1] != 0 || out.Data()[2] != 2 {
		t.Errorf("relu forward = %v", out.Data())
	}
	if x.Data()[0] != -1 {
		t.Error("relu must not mutate its input")
	}
	g := tensor.MustFromSlice([]float32{5, 5, 5}, 3)
	dx, err := backward1(ctx, r, g)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Data()[0] != 0 || dx.Data()[1] != 0 || dx.Data()[2] != 5 {
		t.Errorf("relu backward = %v", dx.Data())
	}
	r2 := NewReLU("r2")
	if _, err := backward1(ctx, r2, g); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := backward1(ctx, r, tensor.MustNew(5)); err == nil {
		t.Error("wrong gradient length should fail")
	}
}

// TestReLUInferenceInPlace: an inference forward clamps its input in place
// and returns it; a training forward returns a fresh tensor and leaves the
// input as it was. NaN clamps to 0 either way.
func TestReLUInferenceInPlace(t *testing.T) {
	nan := float32(math.NaN())
	in := []float32{-1, 0, 2, nan, float32(math.Copysign(0, -1)), 0.5}
	want := []float32{0, 0, 2, 0, 0, 0.5}
	same := func(got []float32) bool {
		for i, v := range got {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	for _, training := range []bool{false, true} {
		ctx := NewContext()
		ctx.SetTraining(training)
		x := tensor.MustFromSlice(append([]float32(nil), in...), 1, len(in))
		out, err := NewReLU("r").ForwardBatch(ctx, x)
		if err != nil {
			t.Fatal(err)
		}
		if !same(out.Data()) {
			t.Fatalf("training %v: relu = %v, want %v", training, out.Data(), want)
		}
		if !training {
			if out != x || !same(x.Data()) {
				t.Fatalf("inference: relu returned %p over %v, want its input %p rewritten", out, x.Data(), x)
			}
			continue
		}
		if out == x || &out.Data()[0] == &x.Data()[0] {
			t.Fatal("training: relu output shares its input's storage")
		}
		for i, v := range x.Data() {
			if math.Float32bits(v) != math.Float32bits(in[i]) {
				t.Fatalf("training: input %d changed to %v", i, v)
			}
		}
	}
}

func TestFlatten(t *testing.T) {
	ctx := trainCtx()
	f := NewFlatten("f")
	x := tensor.MustNew(2, 3, 4)
	out, err := forward1(ctx, f, x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rank() != 1 || out.Len() != 24 {
		t.Errorf("flatten shape %v", out.Shape())
	}
	g := tensor.MustNew(24)
	dx, err := backward1(ctx, f, g)
	if err != nil {
		t.Fatal(err)
	}
	if dx.Rank() != 3 || dx.Dim(2) != 4 {
		t.Errorf("unflatten shape %v", dx.Shape())
	}
	f2 := NewFlatten("f2")
	if _, err := backward1(ctx, f2, g); err == nil {
		t.Error("backward before forward should fail")
	}
}

func TestDenseForwardKnown(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(7))
	d, err := NewDense("d", 2, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	copy(d.Weight().Data(), []float32{1, 2, 3, 4})
	copy(d.Bias().Data(), []float32{10, 20})
	x := tensor.MustFromSlice([]float32{1, 1}, 2)
	out, err := forward1(ctx, d, x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 13 || out.Data()[1] != 27 {
		t.Errorf("dense forward = %v, want [13 27]", out.Data())
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d, err := NewDense("d", 6, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		x := tensor.MustNew(n, 6)
		x.FillUniform(rng, -1, 1)
		gradCheck(t, d, x, 5e-2)
	}
}

func TestDenseValidation(t *testing.T) {
	ctx := trainCtx()
	rng := rand.New(rand.NewSource(9))
	if _, err := NewDense("d", 0, 1, rng); err == nil {
		t.Error("zero input dim should fail")
	}
	if _, err := NewDense("d", 1, 1, nil); err == nil {
		t.Error("nil rng should fail")
	}
	d, _ := NewDense("d", 3, 2, rng)
	if _, err := forward1(ctx, d, tensor.MustNew(4)); err == nil {
		t.Error("wrong input length should fail")
	}
	if _, err := backward1(ctx, d, tensor.MustNew(2)); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := forward1(ctx, d, tensor.MustNew(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := backward1(ctx, d, tensor.MustNew(3)); err == nil {
		t.Error("wrong gradient length should fail")
	}
}

func TestLRNForwardKnown(t *testing.T) {
	ctx := NewContext()
	l, err := NewLRN("l", 3, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Single pixel, 2 channels, window 3 (half=1), k=1, α=1, β=1, n=3:
	// denom_0 = 1 + (1/3)(x0²+x1²), y_0 = x0/denom_0.
	x := tensor.MustFromSlice([]float32{3, 4}, 2, 1, 1)
	out, err := forward1(ctx, l, x)
	if err != nil {
		t.Fatal(err)
	}
	d0 := 1 + (9.0+16.0)/3
	if math.Abs(float64(out.At3(0, 0, 0))-3/d0) > 1e-6 {
		t.Errorf("lrn out0 = %v, want %v", out.At3(0, 0, 0), 3/d0)
	}
	if math.Abs(float64(out.At3(1, 0, 0))-4/d0) > 1e-6 {
		t.Errorf("lrn out1 = %v, want %v", out.At3(1, 0, 0), 4/d0)
	}
}

func TestLRNGradCheck(t *testing.T) {
	l := NewAlexNetLRN("l")
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 3} {
		x := tensor.MustNew(n, 7, 3, 3)
		x.FillUniform(rng, -2, 2)
		gradCheck(t, l, x, 5e-2)
	}
}

func TestLRNValidation(t *testing.T) {
	ctx := trainCtx()
	if _, err := NewLRN("l", 0, 1, 1, 1); err == nil {
		t.Error("window 0 should fail")
	}
	// A window is centred on its channel: an even n would span n+1
	// channels while α is scaled by 1/n.
	for _, n := range []int{2, 4} {
		if _, err := NewLRN("l", n, 2, 1e-4, 0.75); err == nil {
			t.Errorf("even window %d should fail", n)
		}
	}
	if _, err := NewLRN("l", 3, -1, 1, 1); err == nil {
		t.Error("negative k should fail")
	}
	if _, err := NewLRN("l", 3, 1, 1, 0); err == nil {
		t.Error("zero beta should fail")
	}
	l := NewAlexNetLRN("l")
	if _, err := forward1(ctx, l, tensor.MustNew(4)); err == nil {
		t.Error("rank-1 input should fail")
	}
	if _, err := backward1(ctx, l, tensor.MustNew(1, 1, 1)); err == nil {
		t.Error("backward before forward should fail")
	}
	if _, err := forward1(ctx, l, tensor.MustNew(2, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := backward1(ctx, l, tensor.MustNew(3, 2, 2)); err == nil {
		t.Error("wrong gradient shape should fail")
	}
}

func TestDropout(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(11))
	d, err := NewDropout("d", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(1000)
	x.Fill(1)
	// Inference: identity.
	out, err := forward1(ctx, d, x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(x) {
		t.Error("inference dropout should be identity")
	}
	g := tensor.MustNew(1000)
	g.Fill(1)
	dg, err := backward1(ctx, d, g)
	if err != nil {
		t.Fatal(err)
	}
	if !dg.Equal(g) {
		t.Error("inference dropout backward should be identity")
	}
	// Training: ~half dropped, survivors scaled ×2, expectation preserved.
	ctx.SetTraining(true)
	out, err = forward1(ctx, d, x)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range out.Data() {
		if v == 0 {
			zeros++
		} else if v != 2 {
			t.Fatalf("surviving activation = %v, want 2", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d of 1000 at rate 0.5", zeros)
	}
	if m := out.Mean(); math.Abs(m-1) > 0.15 {
		t.Errorf("dropout mean = %v, want ~1 (inverted scaling)", m)
	}
	dg, err = backward1(ctx, d, g)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dg.Data() {
		if (out.Data()[i] == 0) != (v == 0) {
			t.Fatal("dropout backward mask must match forward mask")
		}
	}
	if _, err := NewDropout("d", 1.0, rng); err == nil {
		t.Error("rate 1 should fail")
	}
	if _, err := NewDropout("d", 0.5, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestCrossEntropyLoss(t *testing.T) {
	logits := tensor.MustFromSlice([]float32{0, 0, 0}, 1, 3)
	loss, grad, err := CrossEntropyLossBatch(logits, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Errorf("uniform loss = %v, want ln 3", loss)
	}
	// Gradient sums to zero and is p − onehot.
	var sum float64
	for i, g := range grad.Data() {
		sum += float64(g)
		want := 1.0 / 3
		if i == 1 {
			want -= 1
		}
		if math.Abs(float64(g)-want) > 1e-6 {
			t.Errorf("grad[%d] = %v, want %v", i, g, want)
		}
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("gradient sum = %v, want 0", sum)
	}
	if _, _, err := CrossEntropyLossBatch(logits, []int{5}); err == nil {
		t.Error("out-of-range label should fail")
	}
	if _, _, err := CrossEntropyLossBatch(tensor.MustNew(3), []int{0}); err == nil {
		t.Error("rank-1 logits should fail")
	}
}

func TestSoftmaxHelper(t *testing.T) {
	probs, err := Softmax(tensor.MustFromSlice([]float32{1, 1}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(probs[0])-0.5) > 1e-6 {
		t.Errorf("softmax = %v", probs)
	}
	if _, err := Softmax(tensor.MustNew(2, 2)); err == nil {
		t.Error("rank-2 should fail")
	}
}

func TestSequentialWiring(t *testing.T) {
	ctx := trainCtx()
	rng := rand.New(rand.NewSource(12))
	net, err := NewMicroAlexNet(MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3, Conv2Filters: 4,
		Hidden: 8, Classes: 3, UseLRN: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	logits, err := forward1(ctx, net, x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rank() != 1 || logits.Len() != 3 {
		t.Fatalf("logits shape %v", logits.Shape())
	}
	row, err := tensor.Pack([]*tensor.Tensor{logits})
	if err != nil {
		t.Fatal(err)
	}
	loss, grad, err := CrossEntropyLossBatch(row, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Errorf("loss = %v, want > 0", loss)
	}
	net.ZeroGrads()
	dx, err := net.BackwardBatch(ctx, grad)
	if err != nil {
		t.Fatal(err)
	}
	if dx0, err := dx.Sample(0); err != nil || dx.Dim(0) != 1 || !dx0.SameShape(x) {
		t.Errorf("input gradient shape %v (%v)", dx.Shape(), err)
	}
	// Some parameter gradient must be nonzero.
	nonzero := false
	for _, p := range net.Params() {
		if p.Grad.L2Norm() > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Error("all parameter gradients are zero after backward")
	}
	net.ZeroGrads()
	for _, p := range net.Params() {
		if p.Grad.L2Norm() != 0 {
			t.Error("ZeroGrads left a nonzero gradient")
		}
	}
	if len(net.Params()) == 0 || net.Len() == 0 {
		t.Error("params/len broken")
	}
}

func TestSequentialForwardFrom(t *testing.T) {
	ctx := NewContext()
	rng := rand.New(rand.NewSource(13))
	cfg := MicroConfig{InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3,
		Conv2Filters: 4, Hidden: 8, Classes: 3, UseLRN: false}
	net, err := NewMicroAlexNet(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(3, 16, 16)
	x.FillUniform(rng, 0, 1)
	full, err := net.Forward(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	// Manually run layer 0 then ForwardFrom(1): must agree.
	conv, err := net.Layer(0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := forward1(ctx, conv, x)
	if err != nil {
		t.Fatal(err)
	}
	rest, err := net.ForwardFrom(ctx, 1, mid)
	if err != nil {
		t.Fatal(err)
	}
	if !full.AllClose(rest, 1e-6) {
		t.Error("ForwardFrom disagrees with full forward")
	}
	if _, err := net.ForwardFrom(ctx, -1, mid); err == nil {
		t.Error("negative from should fail")
	}
	if _, err := net.Layer(99); err == nil {
		t.Error("out-of-range layer should fail")
	}
}

func TestSequentialValidation(t *testing.T) {
	if _, err := NewSequential("empty"); err == nil {
		t.Error("empty sequential should fail")
	}
	if _, err := NewSequential("nil", nil); err == nil {
		t.Error("nil layer should fail")
	}
}

func TestMicroConfigValidate(t *testing.T) {
	if _, err := (MicroConfig{InputSize: 4, Conv1Filters: 1, Conv1Kernel: 3, Conv2Filters: 1, Hidden: 1, Classes: 2}).Validate(); err == nil {
		t.Error("tiny input should fail")
	}
	if _, err := (MicroConfig{InputSize: 32, Conv1Filters: 1, Conv1Kernel: 4, Conv2Filters: 1, Hidden: 1, Classes: 2}).Validate(); err == nil {
		t.Error("even kernel should fail")
	}
	if _, err := (MicroConfig{InputSize: 32, Conv1Filters: 1, Conv1Kernel: 3, Conv2Filters: 1, Hidden: 1, Classes: 1}).Validate(); err == nil {
		t.Error("one class should fail")
	}
	flat, err := DefaultMicroConfig().Validate()
	if err != nil || flat <= 0 {
		t.Errorf("default config invalid: %d, %v", flat, err)
	}
	if _, err := NewMicroAlexNet(DefaultMicroConfig(), nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestFirstConv(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "conv1" {
		t.Errorf("first conv = %q", c.Name())
	}
	flat, _ := NewSequential("noconv", NewReLU("r"))
	if _, err := FirstConv(flat); err == nil {
		t.Error("network without conv should fail")
	}
}

func TestFullAlexNetConstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("full AlexNet allocates ~0.5 GB; skipped in -short")
	}
	rng := rand.New(rand.NewSource(18))
	net, err := NewAlexNet(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	// AlexNet has ~58 M parameters at 6 classes (fc8 is small).
	n := 0
	for _, p := range net.Params() {
		n += p.Value.Len()
	}
	if n < 50_000_000 || n > 70_000_000 {
		t.Errorf("alexnet param count = %d, want ~58M", n)
	}
	conv1, err := FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	if conv1.Filters() != 96 || conv1.Kernel() != 11 || conv1.Stride() != 4 {
		t.Error("conv1 is not the paper's 96×11×11/4 layer")
	}
	if _, err := NewAlexNet(1, rng); err == nil {
		t.Error("one class should fail")
	}
	if _, err := NewAlexNet(6, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestAlexNetForwardShape(t *testing.T) {
	ctx := NewContext()
	if testing.Short() {
		t.Skip("full AlexNet forward is expensive; skipped in -short")
	}
	rng := rand.New(rand.NewSource(19))
	net, err := NewAlexNet(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(3, AlexNetInputSize, AlexNetInputSize)
	x.FillUniform(rng, 0, 1)
	logits, err := net.Forward(ctx, x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rank() != 1 || logits.Len() != 6 {
		t.Errorf("alexnet logits shape %v", logits.Shape())
	}
}
