package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// Golden-equivalence suite for the one forward path: for every layer and
// for whole networks, each row of ForwardBatch over a packed batch of N must
// be BIT-IDENTICAL to ForwardBatch over a batch of one holding that sample,
// for batch sizes that are ragged against typical worker counts — a
// sample's output never depends on the batch it rides in.

// batchTol bounds the GEMM-shaped gradient comparisons of the backward
// suite, whose float32 addition chains regroup with the batch size.
const batchTol = 1e-5

// randBatch builds n random CHW samples plus their NCHW pack.
func randBatch(t testing.TB, rng *rand.Rand, n, c, h, w int) ([]*tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.MustNew(c, h, w)
		x.FillUniform(rng, -1, 1)
		xs[i] = x
	}
	batch, err := tensor.Stack(xs)
	if err != nil {
		t.Fatal(err)
	}
	return xs, batch
}

// requireBitIdentical fails unless got and want agree in shape and in every
// bit of every element.
func requireBitIdentical(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != %v", what, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if g := got.Data()[i]; math.Float32bits(g) != math.Float32bits(v) {
			t.Fatalf("%s: elem %d: %v != %v (must be bit-identical)", what, i, g, v)
		}
	}
}

// checkBatchMatches runs layer.ForwardBatch on the pack and on a batch of
// one per sample, through independent contexts, and compares row for row.
func checkBatchMatches(t *testing.T, layer Layer, xs []*tensor.Tensor, batch *tensor.Tensor) {
	t.Helper()
	bout, err := layer.ForwardBatch(NewContext(), batch)
	if err != nil {
		t.Fatalf("%s: batched forward: %v", layer.Name(), err)
	}
	if bout.Dim(0) != len(xs) {
		t.Fatalf("%s: batched output leading dim %d != batch %d", layer.Name(), bout.Dim(0), len(xs))
	}
	ctx := NewContext()
	for i, x := range xs {
		want, err := forward1(ctx, layer, x)
		if err != nil {
			t.Fatalf("%s: batch-of-one forward %d: %v", layer.Name(), i, err)
		}
		got, err := bout.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("%s batch %d row %d", layer.Name(), len(xs), i), got, want)
	}
}

// batchSizes includes N=1 and sizes ragged against 2/4/8-worker pools.
var batchSizes = []int{1, 2, 3, 5, 8, 13}

func TestForwardBatchConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, tc := range []struct{ inC, outC, k, stride, pad, size int }{
		{3, 8, 3, 1, 1, 12},
		{2, 5, 5, 2, 0, 17},
		{4, 7, 3, 2, 1, 9},
		{1, 4, 2, 2, 0, 8},
	} {
		conv, err := NewConv2D(fmt.Sprintf("conv%dx%d", tc.k, tc.stride), tc.inC, tc.outC,
			tc.k, tc.stride, tc.pad, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batchSizes {
			xs, batch := randBatch(t, rng, n, tc.inC, tc.size, tc.size)
			checkBatchMatches(t, conv, xs, batch)
		}
	}
}

func TestForwardBatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d, err := NewDense("fc", 37, 11, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range batchSizes {
		xs := make([]*tensor.Tensor, n)
		for i := range xs {
			x := tensor.MustNew(37)
			x.FillUniform(rng, -1, 1)
			xs[i] = x
		}
		batch, err := tensor.Stack(xs)
		if err != nil {
			t.Fatal(err)
		}
		checkBatchMatches(t, d, xs, batch)
	}
}

func TestForwardBatchReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := NewReLU("relu")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 6, 7)
		checkBatchMatches(t, r, xs, batch)
	}
}

func TestForwardBatchMaxPool(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cfg := range [][2]int{{2, 2}, {3, 2}, {3, 3}} {
		p, err := NewMaxPool2D("pool", cfg[0], cfg[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range batchSizes {
			xs, batch := randBatch(t, rng, n, 4, 11, 9)
			checkBatchMatches(t, p, xs, batch)
		}
	}
}

func TestForwardBatchLRN(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	l := NewAlexNetLRN("lrn")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 8, 5, 6)
		checkBatchMatches(t, l, xs, batch)
	}
}

func TestForwardBatchFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	f := NewFlatten("flatten")
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 4, 5)
		checkBatchMatches(t, f, xs, batch)
	}
}

func TestForwardBatchDropoutInference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d, err := NewDropout("drop", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Inference contexts: identity, so any batch trivially matches.
	xs, batch := randBatch(t, rng, 5, 2, 3, 3)
	checkBatchMatches(t, d, xs, batch)

	// Training contexts: the mask is stochastic, so only the keep/scale
	// structure is checkable: every output element is 0 or input/(1-rate).
	ctx := NewContext()
	ctx.SetTraining(true)
	ctx.SetRand(rand.New(rand.NewSource(1)))
	out, err := d.ForwardBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	in, od := batch.Data(), out.Data()
	var kept int
	for i := range od {
		switch od[i] {
		case 0:
		case in[i] * 2:
			kept++
		default:
			t.Fatalf("element %d: %v is neither 0 nor 2×%v", i, od[i], in[i])
		}
	}
	if kept == 0 {
		t.Fatal("training dropout kept nothing")
	}
}

// TestForwardBatchSequentialMicro pins the whole micro-AlexNet chain, and
// with it the per-sample entry point: Sequential.Forward is the N=1 view, so
// its logits equal the sample's row of any batch bit for bit.
func TestForwardBatchSequentialMicro(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range batchSizes {
		xs, batch := randBatch(t, rng, n, 3, 32, 32)
		bout, err := net.ForwardBatch(NewContext(), batch)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext()
		for i, x := range xs {
			want, err := net.Forward(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bout.Sample(i)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("micro batch %d row %d vs Forward", n, i), got, want)
		}
	}
}

// TestForwardBatchFromMatchesForwardFrom pins the mid-chain entry point the
// hybrid network uses to continue micro-batches past the reliable conv1.
func TestForwardBatchFromMatchesForwardFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	conv1, err := FirstConv(net)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	xs, batch := randBatch(t, rng, n, 3, 32, 32)
	ctx := NewContext()
	// Feature maps after conv1, per sample and packed.
	feats := make([]*tensor.Tensor, n)
	for i, x := range xs {
		f, err := forward1(ctx, conv1, x)
		if err != nil {
			t.Fatal(err)
		}
		feats[i] = f
	}
	fbatch, err := conv1.ForwardBatch(NewContext(), batch)
	if err != nil {
		t.Fatal(err)
	}
	bout, err := net.ForwardBatchFrom(NewContext(), 1, fbatch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want, err := net.ForwardFrom(ctx, 1, feats[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := bout.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, fmt.Sprintf("ForwardBatchFrom row %d", i), got, want)
	}
}

// TestForwardSamplesRefusesMixedShapes: samples run as one packed batch, so
// samples of different shapes (which no served or trained batch contains:
// images are sized at admission and every model ends in a Dense layer) are
// an error, as is a nil sample; no samples give no outputs.
func TestForwardSamplesRefusesMixedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	var xs []*tensor.Tensor
	for _, size := range []int{32, 20, 32} {
		x := tensor.MustNew(3, size, size)
		x.FillUniform(rng, -1, 1)
		xs = append(xs, x)
	}
	// Layers [0, 3) are convolutional, so each size alone would fit.
	const to = 3
	if _, err := net.ForwardSamples(NewContext(), 0, to, xs); err == nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("mixed-shape samples gave %v, want a shape mismatch", err)
	}
	if _, err := net.ForwardSamples(NewContext(), 0, to, []*tensor.Tensor{xs[0], nil}); err == nil {
		t.Fatal("nil sample accepted")
	}
	if outs, err := net.ForwardSamples(NewContext(), 0, to, nil); err != nil || outs != nil {
		t.Fatalf("no samples: outputs %v, err %v", outs, err)
	}
}

// TestForwardBatchFullAlexNet runs the paper's full AlexNet (227×227, ~60M
// params): each row of a batch of two against its batch of one. Expensive:
// skipped in -short runs.
func TestForwardBatchFullAlexNet(t *testing.T) {
	if testing.Short() {
		t.Skip("full AlexNet forward is expensive")
	}
	rng := rand.New(rand.NewSource(49))
	net, err := NewAlexNet(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs, batch := randBatch(t, rng, 2, 3, AlexNetInputSize, AlexNetInputSize)
	checkBatchMatches(t, net, xs, batch)
}

// TestForwardBatchScratchReuse pins the batch-sized context scratch: two
// batched conv calls through one context must reuse the grown buffers
// (second call allocates only its output tensor, not fresh im2col scratch).
func TestForwardBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	conv, err := NewConv2D("conv", 3, 8, 3, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	_, batch := randBatch(t, rng, 8, 3, 16, 16)
	if _, err := conv.ForwardBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := conv.ForwardBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	})
	// One output tensor (struct + shape + strides + data) per call; the
	// im2col and GEMM scratch must come from the context. Generous bound:
	// anything near the scratch sizes would blow straight past it.
	if allocs > 8 {
		t.Fatalf("batched conv allocates %.0f objects per call; scratch not reused", allocs)
	}
}

func TestForwardBatchShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	conv, err := NewConv2D("conv", 3, 4, 3, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDense("fc", 10, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	if _, err := conv.ForwardBatch(ctx, tensor.MustNew(3, 8, 8)); err == nil {
		t.Fatal("conv accepted rank-3 input on the batched path")
	}
	if _, err := conv.ForwardBatch(ctx, tensor.MustNew(2, 5, 8, 8)); err == nil {
		t.Fatal("conv accepted wrong channel count")
	}
	if _, err := conv.ForwardBatch(nil, tensor.MustNew(2, 3, 8, 8)); err == nil {
		t.Fatal("conv accepted nil context")
	}
	if _, err := d.ForwardBatch(ctx, tensor.MustNew(10)); err == nil {
		t.Fatal("dense accepted rank-1 input on the batched path")
	}
	net, err := NewMicroAlexNet(DefaultMicroConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardBatch(nil, tensor.MustNew(1, 3, 32, 32)); err == nil {
		t.Fatal("sequential accepted nil context")
	}
	if _, err := net.ForwardBatchFrom(NewContext(), 99, tensor.MustNew(1, 3, 32, 32)); err == nil {
		t.Fatal("sequential accepted out-of-range from index")
	}
}
