package nn

import (
	"math/rand"
	"testing"

	"repro/internal/reliable"
	"repro/internal/tensor"
)

// directConv is the reference every test here compares the GEMM path
// against: the library's one unprotected direct-loop convolution, run with
// the layer's own weights, bias and geometry.
func directConv(c *Conv2D, x *tensor.Tensor) (*tensor.Tensor, error) {
	return reliable.NativeConv2D(x, c.Weight(), c.Bias().Data(),
		reliable.ConvSpec{Stride: c.Stride(), Pad: c.Pad()})
}

// TestConvIm2colMatchesDirect is the golden-equivalence gate for the GEMM
// convolution path: on randomized shapes, strides and paddings, the
// im2col+GEMM ForwardBatch must agree with the direct-loop reference
// (reliable.NativeConv2D) within 1e-5.
func TestConvIm2colMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := NewContext()
	for trial := 0; trial < 50; trial++ {
		inC := 1 + rng.Intn(4)
		outC := 1 + rng.Intn(6)
		k := 1 + rng.Intn(5)
		stride := 1 + rng.Intn(3)
		pad := rng.Intn(3)
		h := k + rng.Intn(12)
		w := k + rng.Intn(12)

		c, err := NewConv2D("c", inC, outC, k, stride, pad, rng)
		if err != nil {
			t.Fatal(err)
		}
		c.Weight().FillUniform(rng, -1, 1)
		c.Bias().FillUniform(rng, -1, 1)
		x := tensor.MustNew(inC, h, w)
		x.FillUniform(rng, -1, 1)

		want, err := directConv(c, x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := forward1(ctx, c, x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.SameShape(want) {
			t.Fatalf("trial %d (c=%d f=%d k=%d s=%d p=%d %dx%d): shape %v != %v",
				trial, inC, outC, k, stride, pad, h, w, got.Shape(), want.Shape())
		}
		diff, err := got.MaxAbsDiff(want)
		if err != nil {
			t.Fatal(err)
		}
		if diff > 1e-5 {
			t.Errorf("trial %d (c=%d f=%d k=%d s=%d p=%d %dx%d): im2col/GEMM diverges from the direct loop by %v",
				trial, inC, outC, k, stride, pad, h, w, diff)
		}
	}
}

// TestConvConcurrentSharedWeights runs many forward passes through ONE conv
// layer from concurrent goroutines, each with its own context — the
// concurrency contract the worker-pool execution layer depends on. Run
// under -race this doubles as the data-race gate for the layer refactor.
func TestConvConcurrentSharedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := NewConv2D("c", 3, 8, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(3, 12, 12)
	x.FillUniform(rng, -1, 1)
	want, err := directConv(c, x)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			ctx := NewContext()
			for i := 0; i < 20; i++ {
				out, err := forward1(ctx, c, x)
				if err != nil {
					errs <- err
					return
				}
				if d, _ := out.MaxAbsDiff(want); d > 1e-5 {
					errs <- errDiverged
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestZeroValueContextUsable: the zero value of Context must work like
// NewContext() — the facade exports the type, so external callers can
// legitimately start from `var ctx nn.Context`.
func TestZeroValueContextUsable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c, err := NewConv2D("c", 1, 2, 3, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(1, 5, 5)
	x.FillUniform(rng, -1, 1)
	var ctx Context
	got, err := forward1(&ctx, c, x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := directConv(c, x)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := got.MaxAbsDiff(want); d > 1e-5 {
		t.Errorf("zero-value context forward diverges by %v", d)
	}
}

var errDiverged = &divergedError{}

type divergedError struct{}

func (*divergedError) Error() string { return "concurrent forward diverged from reference" }

// TestForwardBatchInferenceKeepsNoLowering: an inference forward convolves
// straight from its input (tensor.ConvGemmAcc), so no convolution state of
// an inference context holds an im2col matrix; only a training context's
// backward pass lowers its cached input.
func TestForwardBatchInferenceKeepsNoLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	_, batch := randBatch(t, rng, 4, 3, 32, 32)
	convCols := func(ctx *Context) (convs, lowered int) {
		for _, s := range ctx.states {
			if st, ok := s.(*convState); ok {
				convs++
				if st.cols != nil {
					lowered++
				}
			}
		}
		return convs, lowered
	}

	ctx := NewContext()
	if _, err := net.ForwardBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if convs, lowered := convCols(ctx); convs == 0 || lowered != 0 {
		t.Errorf("inference context: %d of %d conv states hold an im2col matrix, want 0 of > 0", lowered, convs)
	}

	train := NewContext()
	train.SetTraining(true)
	logits, err := net.ForwardBatch(train, batch)
	if err != nil {
		t.Fatal(err)
	}
	grad := tensor.MustNew(logits.Shape()...)
	grad.FillUniform(rng, -1, 1)
	if _, err := net.BackwardBatch(train, grad); err != nil {
		t.Fatal(err)
	}
	if convs, lowered := convCols(train); convs == 0 || lowered != convs {
		t.Errorf("training context after backward: %d of %d conv states hold their lowering, want all", lowered, convs)
	}
}
