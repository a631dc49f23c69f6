package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/cli"
	"repro/internal/gtsrb"
)

// TestClassifyOpsAndAllocs pins two exact per-frame counters of the demo
// hybrid (32 px, 16 conv1 filters) that no host noise can blur: the reliable
// stage's operation count — conv1's 16·28·28 outputs × 75 MACs × 2 ops —
// and Classify's heap allocations (about 170, the same under -race).
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
	if allocs > 400 {
		t.Fatalf("Classify allocates %v times per frame, want <= 400", allocs)
	}
}
