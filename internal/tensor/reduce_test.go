package tensor

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCol2imBatchMatchesPerSample pins the batched scatter against N
// independent batches of one: sample s's column range must land bit-for-bit in
// sample s's CHW plane, across ragged batch sizes and strided/padded shapes.
func TestCol2imBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, tc := range []struct{ n, c, h, w, k, stride, pad int }{
		{1, 1, 5, 5, 3, 1, 0},
		{2, 3, 8, 8, 3, 1, 1},
		{5, 2, 9, 7, 3, 2, 1},
		{3, 3, 11, 11, 5, 2, 0},
		{4, 1, 6, 6, 2, 2, 0},
		{13, 2, 7, 7, 3, 1, 1},
	} {
		outH := ConvOut(tc.h, tc.k, tc.stride, tc.pad)
		outW := ConvOut(tc.w, tc.k, tc.stride, tc.pad)
		hw := outH * outW
		ckk := tc.c * tc.k * tc.k
		chw := tc.c * tc.h * tc.w
		cols := randSlice(rng, ckk*tc.n*hw)
		got := make([]float32, tc.n*chw)
		if err := Col2imBatch(got, cols, tc.n, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < tc.n; s++ {
			// Gather sample s's columns back into the per-sample layout.
			one := make([]float32, ckk*hw)
			for r := 0; r < ckk; r++ {
				copy(one[r*hw:(r+1)*hw], cols[r*tc.n*hw+s*hw:r*tc.n*hw+(s+1)*hw])
			}
			want := make([]float32, chw)
			if err := Col2imBatch(want, one, 1, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad); err != nil {
				t.Fatal(err)
			}
			for i, v := range want {
				if got[s*chw+i] != v {
					t.Fatalf("%+v sample %d elem %d: batch %v != per-sample %v",
						tc, s, i, got[s*chw+i], v)
				}
			}
		}
	}
}

// TestCol2imBatchAccumulates pins the accumulate-don't-clear contract: a
// second scatter into the same dst doubles it.
func TestCol2imBatchAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n, c, h, w, k := 2, 2, 6, 6, 3
	outH := ConvOut(h, k, 1, 1)
	// Small integers keep every partial sum exactly representable, so the
	// doubling check is exact rather than tolerance-based.
	cols := make([]float32, c*k*k*n*outH*outH)
	for i := range cols {
		cols[i] = float32(rng.Intn(17) - 8)
	}
	once := make([]float32, n*c*h*w)
	if err := Col2imBatch(once, cols, n, c, h, w, k, 1, 1); err != nil {
		t.Fatal(err)
	}
	twice := make([]float32, n*c*h*w)
	for range [2]int{} {
		if err := Col2imBatch(twice, cols, n, c, h, w, k, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := range once {
		if twice[i] != 2*once[i] {
			t.Fatalf("elem %d: second scatter gave %v, want %v", i, twice[i], 2*once[i])
		}
	}
}

func TestCol2imBatchErrorsNameDims(t *testing.T) {
	dst := make([]float32, 2*3*8*8)
	err := Col2imBatch(dst, make([]float32, 1), 2, 3, 8, 8, 3, 1, 1)
	if err == nil {
		t.Fatal("undersized cols accepted")
	}
	for _, want := range []string{"batch 2", "(3,8,8)", "kernel 3", "stride 1", "pad 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	big := make([]float32, 3*3*3*2*8*8)
	if err := Col2imBatch(make([]float32, 1), big, 2, 3, 8, 8, 3, 1, 1); err == nil {
		t.Fatal("undersized dst accepted")
	} else if !strings.Contains(err.Error(), "dst length 1") {
		t.Fatalf("dst error %q does not name the length", err)
	}
	if err := Col2imBatch(dst, big, 0, 3, 8, 8, 3, 1, 1); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if err := Col2imBatch(dst, big, 1, 3, 8, 8, 9, 1, 0); err == nil ||
		!strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("oversized kernel error %v", err)
	}
}

func TestAddRowSums(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rows, groups, groupLen := 4, 3, 7
	src := randSlice(rng, rows*groups*groupLen)
	got := randSlice(rng, rows) // pre-seeded: kernel must accumulate, not assign
	want := append([]float32(nil), got...)
	if err := AddRowSums(got, src, rows, groups, groupLen); err != nil {
		t.Fatal(err)
	}
	// Reference: the per-sample backward chain — one float32 accumulator per
	// (row, group), folded into dst in group order.
	for r := 0; r < rows; r++ {
		for g := 0; g < groups; g++ {
			var acc float32
			for i := 0; i < groupLen; i++ {
				acc += src[(r*groups+g)*groupLen+i]
			}
			want[r] += acc
		}
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: %v != %v", r, got[r], want[r])
		}
	}
}

func TestAddColSums(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows, cols := 5, 9
	src := randSlice(rng, rows*cols)
	got := randSlice(rng, cols)
	want := append([]float32(nil), got...)
	if err := AddColSums(got, src, rows, cols); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want[c] += src[r*cols+c]
		}
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("col %d: %v != %v", c, got[c], want[c])
		}
	}
}

func TestReduceErrorsNameDims(t *testing.T) {
	if err := AddRowSums(make([]float32, 4), make([]float32, 1), 4, 3, 7); err == nil ||
		!strings.Contains(err.Error(), "rows=4") || !strings.Contains(err.Error(), "groupLen=7") {
		t.Fatalf("row-sum src error %v does not name dims", err)
	}
	if err := AddRowSums(make([]float32, 1), make([]float32, 4*3*7), 4, 3, 7); err == nil ||
		!strings.Contains(err.Error(), "rows 4") {
		t.Fatalf("row-sum dst error %v does not name rows", err)
	}
	if err := AddRowSums(make([]float32, 4), make([]float32, 84), -1, 3, 7); err == nil {
		t.Fatal("negative rows accepted")
	}
	if err := AddColSums(make([]float32, 9), make([]float32, 1), 5, 9); err == nil ||
		!strings.Contains(err.Error(), "rows=5") || !strings.Contains(err.Error(), "cols=9") {
		t.Fatalf("col-sum src error %v does not name dims", err)
	}
	if err := AddColSums(make([]float32, 1), make([]float32, 45), 5, 9); err == nil ||
		!strings.Contains(err.Error(), "cols 9") {
		t.Fatalf("col-sum dst error %v does not name cols", err)
	}
	if err := AddColSums(make([]float32, 9), make([]float32, 45), 5, -2); err == nil {
		t.Fatal("negative cols accepted")
	}
}
