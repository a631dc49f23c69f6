package cli

import "testing"

// TestNewBatchClassifierRefusesNegativeSizes: a negative -workers or
// -subbatch is an error, not silently the default.
func TestNewBatchClassifierRefusesNegativeSizes(t *testing.T) {
	h, _, err := DemoHybrid(32, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ workers, subBatch int }{{-1, 0}, {0, -1}, {-2, -3}} {
		if _, err := NewBatchClassifier(h, tc.workers, tc.subBatch); err == nil {
			t.Errorf("workers %d, sub-batch %d accepted", tc.workers, tc.subBatch)
		}
	}
	bc, err := NewBatchClassifier(h, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Workers() != 1 || bc.SubBatch() != 2 {
		t.Errorf("workers %d, sub-batch %d; want 1, 2", bc.Workers(), bc.SubBatch())
	}
}
