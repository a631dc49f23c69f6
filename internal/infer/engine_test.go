package infer

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func microNet(t testing.TB, seed int64) *nn.Sequential {
	t.Helper()
	net, err := nn.NewMicroAlexNet(nn.MicroConfig{
		InputSize: 16, Conv1Filters: 4, Conv1Kernel: 3, Conv2Filters: 4,
		Hidden: 8, Classes: 4, UseLRN: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randImages(n, size int, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		x := tensor.MustNew(3, size, size)
		x.FillUniform(rng, 0, 1)
		xs[i] = x
	}
	return xs
}

func TestBatchEngineRunSub(t *testing.T) {
	e, err := New(nil, Config{Workers: 4, SubBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 4 {
		t.Fatalf("workers = %d", e.Workers())
	}
	var count atomic.Int64
	if err := e.RunSub(100, func(w *Worker, lo, hi int) error {
		if w.Ctx == nil {
			t.Error("worker without context")
		}
		count.Add(int64(hi - lo))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d of 100 items", count.Load())
	}

	// Errors propagate and cancel the batch.
	boom := errors.New("boom")
	err = e.RunSub(1000, func(w *Worker, lo, hi int) error {
		if lo == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	// Validation. (The empty batch is covered by TestRunSubCoversEveryIndex.)
	if err := e.RunSub(1, nil); err == nil {
		t.Error("nil fn should fail")
	}
	if _, err := New(nil, Config{Workers: -2}); err == nil {
		t.Error("negative workers should fail")
	}
	if _, err := e.PredictBatched(nil); err == nil {
		t.Error("predict without network should fail")
	}
}

// TestBatchEngineRunSubSerializes: the one-batch-at-a-time contract —
// concurrent RunSub callers queue, every batch executes in full, and no
// chunk of one batch runs while another batch is in flight. Each batch
// claims the engine on its first chunk and releases it on its last; a chunk
// that finds another batch's claim has overlapped it. Under -race this also
// proves per-worker state is handed from batch to batch soundly.
func TestBatchEngineRunSubSerializes(t *testing.T) {
	e, err := New(nil, Config{Workers: 3, SubBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	const callers, items = 8, 20
	var owner, total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	errs := make(chan error, callers)
	for c := 1; c <= callers; c++ {
		go func(id int64) {
			defer wg.Done()
			var done atomic.Int64
			errs <- e.RunSub(items, func(w *Worker, lo, hi int) error {
				if !owner.CompareAndSwap(0, id) && owner.Load() != id {
					return fmt.Errorf("batch %d ran a chunk while batch %d was in flight", id, owner.Load())
				}
				runtime.Gosched() // let a waiting batch try to cut in
				total.Add(int64(hi - lo))
				if done.Add(1) == items {
					owner.Store(0)
				}
				return nil
			})
		}(int64(c))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("RunSub: %v", err)
		}
	}
	if got := total.Load(); got != callers*items {
		t.Fatalf("executed %d of %d items", got, callers*items)
	}
}

// TestRunSubCoversEveryIndex: sub-batch partitioning must cover [0, n)
// exactly once with contiguous chunks, for default and explicit sub-batch
// sizes, including ragged tails.
func TestRunSubCoversEveryIndex(t *testing.T) {
	for _, tc := range []struct{ workers, subBatch, n int }{
		{4, 0, 17}, // default: ceil(17/4) = 5 → chunks 5,5,5,2
		{4, 0, 4},
		{4, 0, 1},
		{3, 2, 11}, // explicit cap, ragged tail
		{2, 1, 5},  // batches of one
		{8, 16, 3}, // cap larger than batch
	} {
		e, err := New(nil, Config{Workers: tc.workers, SubBatch: tc.subBatch})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		seen := make([]int, tc.n)
		maxChunk := 0
		err = e.RunSub(tc.n, func(w *Worker, lo, hi int) error {
			if lo < 0 || hi <= lo || hi > tc.n {
				t.Errorf("%+v: bad chunk [%d,%d)", tc, lo, hi)
			}
			mu.Lock()
			if hi-lo > maxChunk {
				maxChunk = hi - lo
			}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%+v: index %d covered %d times", tc, i, c)
			}
		}
		want := tc.subBatch
		if want <= 0 {
			want = (tc.n + tc.workers - 1) / tc.workers
		}
		if want > tc.n {
			want = tc.n
		}
		if maxChunk > want {
			t.Fatalf("%+v: chunk of %d exceeds sub-batch cap %d", tc, maxChunk, want)
		}
	}
	// Empty batch is a no-op; negative sub-batch is rejected at New.
	e, err := New(nil, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSub(0, func(w *Worker, lo, hi int) error {
		t.Error("empty batch must not call fn")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, Config{Workers: 2, SubBatch: -1}); err == nil {
		t.Error("negative sub-batch should fail")
	}
}

// requireBitIdentical fails unless got and want agree in every bit.
func requireBitIdentical(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if math.Float32bits(got[i]) != math.Float32bits(v) {
			t.Fatalf("%s: elem %d: %v != %v (must be bit-identical)", what, i, got[i], v)
		}
	}
}

// TestPredictBatchedMatchesBatchOfOne: the pooled result (packed NCHW
// sub-batches, one GEMM per layer) must be bit for bit what each image gets
// alone as a batch of one (nn.PredictCtx), in order, for every worker count
// and sub-batch size, including N=1 and batches ragged against the pool.
// Run with -race this is the concurrent shared-weight inference gate and
// the golden-equivalence gate of the execution layer.
func TestPredictBatchedMatchesBatchOfOne(t *testing.T) {
	net := microNet(t, 5)
	for _, n := range []int{1, 2, 7, 17} {
		xs := randImages(n, 16, int64(n))
		ctx := nn.NewContext()
		type ref struct {
			class int
			probs []float32
		}
		want := make([]ref, n)
		for i, x := range xs {
			probs, class, err := nn.PredictCtx(ctx, net, x)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = ref{class, probs}
		}
		for _, cfg := range []Config{
			{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 8},
			{Workers: 4, SubBatch: 3}, {Workers: 2, SubBatch: 1},
		} {
			e, err := New(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Two rounds: the second reuses the warmed per-worker scratch.
			for round := 0; round < 2; round++ {
				preds, err := e.PredictBatched(xs)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range preds {
					if p.Class != want[i].class {
						t.Fatalf("n=%d cfg=%+v round=%d: class[%d] = %d, want %d",
							n, cfg, round, i, p.Class, want[i].class)
					}
					requireBitIdentical(t, fmt.Sprintf("n=%d cfg=%+v probs[%d]", n, cfg, i), p.Probs, want[i].probs)
					var sum float64
					for _, v := range p.Probs {
						sum += float64(v)
					}
					if sum < 0.999 || sum > 1.001 {
						t.Fatalf("n=%d cfg=%+v: probs[%d] sum %v", n, cfg, i, sum)
					}
				}
			}
		}
	}
}

// TestForwardBatchedMatchesBatchOfOne: per-sample outputs recovered from the
// packed sub-batches equal each image's batch-of-one output bit for bit.
func TestForwardBatchedMatchesBatchOfOne(t *testing.T) {
	net := microNet(t, 6)
	xs := randImages(9, 16, 7)
	var e *BatchEngine
	for _, cfg := range []Config{{Workers: 3}, {Workers: 3, SubBatch: 4}} {
		var err error
		e, err = New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := e.ForwardBatched(xs)
		if err != nil {
			t.Fatal(err)
		}
		ctx := nn.NewContext()
		for i, x := range xs {
			want, err := net.Forward(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("cfg=%+v forward[%d]", cfg, i), outs[i].Data(), want.Data())
		}
	}
	if _, err := (&BatchEngine{workers: e.workers}).ForwardBatched(xs); err == nil {
		t.Error("batched forward without network should fail")
	}
	if _, err := (&BatchEngine{workers: e.workers}).PredictBatched(xs); err == nil {
		t.Error("batched predict without network should fail")
	}
}

// TestForwardBatchedMixedShapes: inputs that cannot pack into one NCHW
// tensor run one batch per shape inside each sub-batch instead of erroring,
// and every output still equals the image's batch-of-one output, in input
// order.
func TestForwardBatchedMixedShapes(t *testing.T) {
	// A conv-only net tolerates any input size ≥ the kernel.
	conv, err := nn.NewConv2D("c", 3, 2, 3, 1, 0, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewSequential("convnet", conv, nn.NewFlatten("f"))
	if err != nil {
		t.Fatal(err)
	}
	big, small := randImages(4, 16, 9), randImages(3, 12, 10)
	xs := []*tensor.Tensor{big[0], small[0], big[1], small[1], small[2], big[2], big[3]}
	for _, cfg := range []Config{{Workers: 2}, {Workers: 1}, {Workers: 2, SubBatch: 1}, {Workers: 3, SubBatch: 3}} {
		e, err := New(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := e.ForwardBatched(xs)
		if err != nil {
			t.Fatalf("cfg=%+v: mixed-shape batched forward: %v", cfg, err)
		}
		preds, err := e.PredictBatched(xs)
		if err != nil {
			t.Fatalf("cfg=%+v: mixed-shape batched predict: %v", cfg, err)
		}
		ctx := nn.NewContext()
		for i, x := range xs {
			want, err := net.Forward(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, fmt.Sprintf("cfg=%+v mixed forward[%d]", cfg, i), outs[i].Data(), want.Data())
			probs, class, err := nn.SoftmaxArgmax(want)
			if err != nil {
				t.Fatal(err)
			}
			if preds[i].Class != class {
				t.Fatalf("cfg=%+v: mixed class[%d] = %d, want %d", cfg, i, preds[i].Class, class)
			}
			requireBitIdentical(t, fmt.Sprintf("cfg=%+v mixed probs[%d]", cfg, i), preds[i].Probs, probs)
		}
	}
}

func TestBatchEngineDefaultWorkers(t *testing.T) {
	e, err := New(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Fatalf("default workers = %d", e.Workers())
	}
}
