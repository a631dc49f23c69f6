package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/gtsrb"
	"repro/internal/tensor"
)

// TestClassifyOpsAndAllocs pins per-frame counters of the demo hybrid
// (32 px, 16 conv1 filters) that host noise cannot blur: the reliable
// stage's operation count — conv1's 16·28·28 outputs × 75 MACs × 2 ops —
// Classify's heap allocations (48 with conv1's output in the worker, 53
// with the qualifier on pooled bit masks and the worker's reused edge map,
// 130 before, 165 before the pooled worker and the in-place inference
// ReLU; the bound leaves 10% over 48, and more under -race, where
// sync.Pool drops some workers and qualifier scratch: 62–74 measured) and,
// after warm-up, the bytes it allocates per frame (about 86 kB, bounded at
// 95; 145 kB before conv1's output stayed in the worker, 210 kB before the
// bit masks, 414 kB before the pooled worker).
func TestClassifyOpsAndAllocs(t *testing.T) {
	h, _, err := cli.DemoHybrid(32, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	img, err := gtsrb.AngledStopSign(32, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecErr != nil {
		t.Fatalf("reliable stage failed: %v", res.ExecErr)
	}
	const wantOps = 16 * 28 * 28 * 75 * 2
	if res.Stats.Ops != wantOps || res.Stats.Failed != 0 || res.Stats.Retries != 0 {
		t.Fatalf("Classify stats %+v, want %d ops and no failures", res.Stats, wantOps)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := h.Classify(img); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per frame", allocs)
	maxAllocs := 53.0
	if raceEnabled {
		maxAllocs = 90
	}
	if allocs > maxAllocs {
		t.Fatalf("Classify allocates %v times per frame, want <= %v", allocs, maxAllocs)
	}
	if raceEnabled {
		return
	}
	const frames, maxBytes = 100, 95 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		if _, err := h.Classify(img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("%d bytes per frame", perFrame)
	if perFrame > maxBytes {
		t.Fatalf("Classify allocates %d bytes per frame, want <= %d", perFrame, maxBytes)
	}
}

// TestClassifySharedNetworkConcurrent: eight goroutines classify through one
// shared network, so pooled workers pass from image to image and goroutine
// to goroutine. Every Result — probabilities bit for bit, Stats, Bucket,
// Qualifier, decision — equals the one a fresh worker gives the same image.
func TestClassifySharedNetworkConcurrent(t *testing.T) {
	h, _, err := cli.DemoHybrid(32, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := gtsrb.Config{Size: 32}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	classes := gtsrb.StandardClasses()
	rng := rand.New(rand.NewSource(34))
	imgs := make([]*tensor.Tensor, 12)
	for i := range imgs {
		// Angled stop signs and every class, so decisions and qualifier
		// verdicts vary from image to image.
		if i%2 == 0 {
			imgs[i], err = gtsrb.AngledStopSign(32, rng)
		} else {
			imgs[i], err = gtsrb.Render(gtsrb.RandomParams(cfg, classes[i%len(classes)], rng), rng)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// The reference: each image on a network of its own, whose pool is
	// empty, so Classify builds a fresh worker.
	want := make([]core.Result, len(imgs))
	for i, img := range imgs {
		fresh, err := core.NewHybridNetwork(h.Config(), h.Net())
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = fresh.Classify(img); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 8, 3
	got := make([][]core.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]core.Result, rounds*len(imgs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range got[g] {
				// Each goroutine walks the images from its own offset.
				if got[g][j], errs[g] = h.Classify(imgs[(g+j)%len(imgs)]); errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for j, res := range got[g] {
			i := (g + j) % len(imgs)
			// DeepEqual covers every field; the float bits are compared on
			// their own because == reads -0 as 0.
			if !reflect.DeepEqual(res, want[i]) || !sameBits(res.Probs, want[i].Probs) ||
				math.Float32bits(res.Confidence) != math.Float32bits(want[i].Confidence) {
				t.Fatalf("goroutine %d, call %d (image %d):\n got %+v\nwant %+v", g, j, i, res, want[i])
			}
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float32bits(a[k]) != math.Float32bits(b[k]) {
			return false
		}
	}
	return true
}
