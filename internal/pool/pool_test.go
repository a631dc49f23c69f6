package pool

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var hits [50]atomic.Int32
		if err := Run(50, workers, func(worker, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

// TestRunErrorWrapsIndexAndCancels: the first error comes back wrapped with
// its item index. With one worker the stop is exact — items 0..5 run, none
// after. With several, Run only promises the wrapped error: the others may
// finish every remaining item before the failing worker stores its failure.
func TestRunErrorWrapsIndexAndCancels(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := Run(10_000, workers, func(worker, i int) error {
			ran.Add(1)
			if i == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "item 5") {
			t.Fatalf("workers=%d: err = %v, want boom wrapped with item 5", workers, err)
		}
		if n := ran.Load(); workers == 1 && n != 6 {
			t.Errorf("workers=1: %d items ran, want 6 (the error cancels the rest)", n)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if err := Run(0, 2, func(worker, i int) error { return nil }); err != nil {
		t.Error("empty run should succeed")
	}
	if err := Run(-1, 2, func(worker, i int) error { return nil }); err == nil {
		t.Error("negative n should fail")
	}
	if err := Run(1, 2, nil); err == nil {
		t.Error("nil fn should fail")
	}
	if err := Run(1, 0, func(worker, i int) error { return nil }); err == nil {
		t.Error("zero workers should fail")
	}
}
