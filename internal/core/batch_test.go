package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/gtsrb"
	"repro/internal/tensor"
)

// TestClassifyBatchMatchesSerial: pooled hybrid classification must agree
// with per-call Classify — classes, decisions, qualifier verdicts AND the
// per-inference reliable-work counters — for any worker count. Run with
// -race this exercises concurrent shared-weight hybrid inference end to end.
func TestClassifyBatchMatchesSerial(t *testing.T) {
	h, imgs := trainedHybrid(t, 9, 91)
	want := serialResults(t, h, imgs)
	for _, workers := range []int{1, 4} {
		c, err := h.NewBatchClassifier(workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ClassifyBatch(imgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i := range got {
			if got[i].Class != want[i].Class || got[i].Decision != want[i].Decision ||
				got[i].Qualifier.Class != want[i].Qualifier.Class {
				t.Errorf("workers=%d img %d: (%d,%v,%v) != serial (%d,%v,%v)",
					workers, i,
					got[i].Class, got[i].Decision, got[i].Qualifier.Class,
					want[i].Class, want[i].Decision, want[i].Qualifier.Class)
			}
			if got[i].Stats != want[i].Stats {
				t.Errorf("workers=%d img %d: stats %+v != serial %+v",
					workers, i, got[i].Stats, want[i].Stats)
			}
		}
	}
}

// TestBatchClassifierReuse: one persistent pool serves many batches in
// turn — growing, shrinking and repeating, so every worker's warmed context
// and engine are reused by later batches — and every result is bit for bit
// the fresh-engine Classify of its image.
func TestBatchClassifierReuse(t *testing.T) {
	h, imgs := trainedHybrid(t, 9, 17)
	want := serialResults(t, h, imgs)
	c, err := h.NewBatchClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 2 {
		t.Fatalf("workers = %d", c.Workers())
	}
	for round, n := range []int{9, 3, 9, 1, 5, 9} {
		got, err := c.ClassifyBatch(imgs[:n])
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !sameResult(got[i], want[i]) {
				t.Fatalf("round %d (n=%d) img %d: (%d,%v,%+v,%+v) != Classify (%d,%v,%+v,%+v)", round, n, i,
					got[i].Class, got[i].Decision, got[i].Stats, got[i].Bucket,
					want[i].Class, want[i].Decision, want[i].Stats, want[i].Bucket)
			}
		}
	}
}

// TestBatchClassifierOneBatchAtATime: several goroutines classify different
// batches on ONE classifier at once; the calls queue on its lock, and every
// result is bit for bit the fresh-engine Classify of its image — a chunk of
// one batch running on a worker while another batch holds it would corrupt
// that worker's context or engine. Run with -race this is the serving-layer
// gate: per-worker state is handed from batch to batch soundly.
func TestBatchClassifierOneBatchAtATime(t *testing.T) {
	h, imgs := trainedHybrid(t, 9, 17)
	want := serialResults(t, h, imgs)
	c, err := NewBatchClassifier(h, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got, err := c.ClassifyBatch(imgs[lo:hi])
				if err != nil {
					errs <- err
					return
				}
				for j := range got {
					if !sameResult(got[j], want[lo+j]) {
						errs <- fmt.Errorf("batch [%d,%d) round %d img %d: (%d,%v,%+v,%+v) != Classify (%d,%v,%+v,%+v)",
							lo, hi, round, lo+j, got[j].Class, got[j].Decision, got[j].Stats, got[j].Bucket,
							want[lo+j].Class, want[lo+j].Decision, want[lo+j].Stats, want[lo+j].Bucket)
						return
					}
				}
			}
		}(i, i+1+i%4)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClassifyBatchSubBatchEquivalence: the batched CNN stage — one NCHW
// micro-batch per worker sub-batch — must reproduce per-call Classify
// bit-for-bit in classes, probabilities, decisions, qualifier verdicts and
// per-inference reliable counters, for every sub-batch size (1 is batches
// of one; sizes ragged against the batch exercise the tail chunks).
// Run with -race this is the golden-equivalence gate of the serving path.
func TestClassifyBatchSubBatchEquivalence(t *testing.T) {
	h, imgs := trainedHybrid(t, 11, 93)
	want := serialResults(t, h, imgs)
	for _, ccfg := range []struct{ workers, subBatch int }{
		{1, 0}, // whole batch in one sub-batch
		{3, 0}, // default ceil(11/3)=4 → ragged tail of 3
		{2, 1}, // batches of one
		{2, 4}, // explicit cap, ragged
	} {
		c, err := NewBatchClassifier(h, ccfg.workers, ccfg.subBatch)
		if err != nil {
			t.Fatal(err)
		}
		if c.SubBatch() != ccfg.subBatch {
			t.Fatalf("sub-batch = %d, want %d", c.SubBatch(), ccfg.subBatch)
		}
		got, err := c.ClassifyBatch(imgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Class != want[i].Class || got[i].Decision != want[i].Decision ||
				got[i].Qualifier.Class != want[i].Qualifier.Class ||
				got[i].Confidence != want[i].Confidence {
				t.Errorf("cfg=%+v img %d: (%d,%v,%v,%v) != serial (%d,%v,%v,%v)",
					ccfg, i,
					got[i].Class, got[i].Decision, got[i].Qualifier.Class, got[i].Confidence,
					want[i].Class, want[i].Decision, want[i].Qualifier.Class, want[i].Confidence)
			}
			if got[i].Stats != want[i].Stats {
				t.Errorf("cfg=%+v img %d: stats %+v != serial %+v",
					ccfg, i, got[i].Stats, want[i].Stats)
			}
			for cls := range got[i].Probs {
				if got[i].Probs[cls] != want[i].Probs[cls] {
					t.Errorf("cfg=%+v img %d: probs[%d] %v != %v",
						ccfg, i, cls, got[i].Probs[cls], want[i].Probs[cls])
				}
			}
		}
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	net := trainedMicroNet(t)
	h, err := NewHybridNetwork(Config{
		Mode: ModeTemporalDMR, Pair: trainedPair,
		SafetyClasses: defaultSafety(),
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	c, err := h.NewBatchClassifier(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.ClassifyBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty batch returned %d results", len(res))
	}
}

// sameResult reports whether two results agree in every field a caller can
// read, probabilities bit for bit.
func sameResult(a, b Result) bool {
	return a.Class == b.Class && a.Confidence == b.Confidence && equalProbs(a.Probs, b.Probs) &&
		a.Decision == b.Decision && a.Qualifier.Class == b.Qualifier.Class &&
		a.Stats == b.Stats && a.Bucket == b.Bucket && (a.ExecErr == nil) == (b.ExecErr == nil)
}

// trainedHybrid wraps the shared trained net in a temporal-DMR hybrid and
// renders n 32 px images of every standard class in turn.
func trainedHybrid(t *testing.T, n int, seed int64) (*HybridNetwork, []*tensor.Tensor) {
	t.Helper()
	h, err := NewHybridNetwork(Config{
		Mode: ModeTemporalDMR,
		Pair: trainedPair, SafetyClasses: defaultSafety(),
	}, trainedMicroNet(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	gcfg, err := gtsrb.Config{Size: 32}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		spec := gtsrb.StandardClasses()[i%len(gtsrb.StandardClasses())]
		if imgs[i], err = gtsrb.Render(gtsrb.RandomParams(gcfg, spec, rng), rng); err != nil {
			t.Fatal(err)
		}
	}
	return h, imgs
}

// serialResults classifies each image alone with h.Classify, the
// fresh-engine oracle every pooled result must equal.
func serialResults(t *testing.T, h *HybridNetwork, imgs []*tensor.Tensor) []Result {
	t.Helper()
	want := make([]Result, len(imgs))
	for i, img := range imgs {
		res, err := h.Classify(img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	return want
}

// TestBatchClassifierCoversEveryIndex: the sub-batch split covers every
// image with one result, in input order, for default and explicit
// sub-batch sizes — ragged tails, batches of one, a cap larger than the
// batch, more workers than images. An empty batch is a no-op and a
// negative sub-batch size is refused.
func TestBatchClassifierCoversEveryIndex(t *testing.T) {
	h, imgs := trainedHybrid(t, 17, 29)
	want := serialResults(t, h, imgs)
	for _, tc := range []struct{ workers, subBatch, n int }{
		{4, 0, 17}, // default: ceil(17/4) = 5 → chunks 5,5,5,2
		{4, 0, 4},
		{4, 0, 1},
		{3, 2, 11}, // explicit cap, ragged tail
		{2, 1, 5},  // batches of one
		{8, 16, 3}, // cap larger than batch, more workers than images
	} {
		c, err := NewBatchClassifier(h, tc.workers, tc.subBatch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ClassifyBatch(imgs[:tc.n])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != tc.n {
			t.Fatalf("%+v: %d results for %d images", tc, len(got), tc.n)
		}
		for i := range got {
			if !sameResult(got[i], want[i]) {
				t.Fatalf("%+v img %d: (%d,%v,%+v,%+v) != Classify (%d,%v,%+v,%+v)", tc, i,
					got[i].Class, got[i].Decision, got[i].Stats, got[i].Bucket,
					want[i].Class, want[i].Decision, want[i].Stats, want[i].Bucket)
			}
		}
	}
	c, err := NewBatchClassifier(h, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.ClassifyBatch(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty batch: %d results, err %v", len(got), err)
	}
	if _, err := NewBatchClassifier(h, 2, -1); err == nil {
		t.Error("negative sub-batch should fail")
	}
}

// TestBatchClassifierDefaultWorkers: workers 0 sizes the pool to
// GOMAXPROCS, through both constructors, and that pool classifies.
func TestBatchClassifierDefaultWorkers(t *testing.T) {
	h, imgs := trainedHybrid(t, 6, 31)
	want := serialResults(t, h, imgs)
	c, err := NewBatchClassifier(h, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS %d", c.Workers(), runtime.GOMAXPROCS(0))
	}
	if d, err := h.NewBatchClassifier(0); err != nil || d.Workers() != c.Workers() || d.SubBatch() != 0 {
		t.Fatalf("h.NewBatchClassifier(0): %v, err %v", d, err)
	}
	got, err := c.ClassifyBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !sameResult(got[i], want[i]) {
			t.Fatalf("img %d: class %d != Classify %d", i, got[i].Class, want[i].Class)
		}
	}
}

// TestBatchClassifierErrorFailsBatch: an image that cannot be classified
// fails the whole batch, whichever worker's chunk holds it, the classifier
// stays usable afterwards, and a negative worker count is refused.
func TestBatchClassifierErrorFailsBatch(t *testing.T) {
	h, imgs := trainedHybrid(t, 6, 37)
	want := serialResults(t, h, imgs)
	c, err := NewBatchClassifier(h, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers() != 4 {
		t.Fatalf("workers = %d", c.Workers())
	}
	for at := 0; at <= len(imgs); at += 3 {
		bad := append(append(append([]*tensor.Tensor{}, imgs[:at]...), tensor.MustNew(3, 5, 5)), imgs[at:]...)
		if _, err := c.ClassifyBatch(bad); err == nil {
			t.Errorf("batch with an unclassifiable image at %d should fail", at)
		}
	}
	got, err := c.ClassifyBatch(imgs)
	if err != nil {
		t.Fatalf("classifier unusable after a failed batch: %v", err)
	}
	for i := range got {
		if !sameResult(got[i], want[i]) {
			t.Fatalf("after a failed batch, img %d: class %d != Classify %d", i, got[i].Class, want[i].Class)
		}
	}
	if _, err := NewBatchClassifier(h, -2, 0); err == nil {
		t.Error("negative workers should fail")
	}
}
