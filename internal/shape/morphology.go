package shape

import (
	"fmt"

	"repro/internal/tensor"
)

// Dilate returns the binary mask dilated by a 3×3 structuring element
// applied r times. Dilation closes small gaps in edge rings before hole
// filling.
func Dilate(mask *tensor.Tensor, r int) (*tensor.Tensor, error) {
	return morph(mask, r, true)
}

// Erode returns the binary mask eroded by a 3×3 structuring element applied
// r times (the inverse step of a morphological closing).
func Erode(mask *tensor.Tensor, r int) (*tensor.Tensor, error) {
	return morph(mask, r, false)
}

func morph(mask *tensor.Tensor, r int, dilate bool) (*tensor.Tensor, error) {
	if mask.Rank() != 2 {
		return nil, fmt.Errorf("shape: morphology needs rank-2 mask, got rank %d", mask.Rank())
	}
	if r < 0 {
		return nil, fmt.Errorf("shape: morphology radius %d must be >= 0", r)
	}
	cur := mask.Clone()
	h, w := mask.Dim(0), mask.Dim(1)
	for it := 0; it < r; it++ {
		next := tensor.MustNew(h, w)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				hit := !dilate // erode: assume kept until a zero neighbour
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						ny, nx := y+dy, x+dx
						inside := ny >= 0 && ny < h && nx >= 0 && nx < w
						var v float32
						if inside {
							v = cur.At(ny, nx)
						}
						if dilate && v != 0 {
							hit = true
						}
						if !dilate && v == 0 {
							hit = false
						}
					}
				}
				if hit {
					next.Set(1, y, x)
				}
			}
		}
		cur = next
	}
	return cur, nil
}

// FillHoles returns the mask with every background region NOT connected to
// the image border filled in — turning a closed edge ring into a solid
// blob. 4-connectivity on the background.
func FillHoles(mask *tensor.Tensor) (*tensor.Tensor, error) {
	if mask.Rank() != 2 {
		return nil, fmt.Errorf("shape: fill holes needs rank-2 mask, got rank %d", mask.Rank())
	}
	h, w := mask.Dim(0), mask.Dim(1)
	outside := make([]bool, h*w)
	var queue []int
	push := func(y, x int) {
		i := y*w + x
		if y >= 0 && y < h && x >= 0 && x < w && !outside[i] && mask.At(y, x) == 0 {
			outside[i] = true
			queue = append(queue, i)
		}
	}
	for x := 0; x < w; x++ {
		push(0, x)
		push(h-1, x)
	}
	for y := 0; y < h; y++ {
		push(y, 0)
		push(y, w-1)
	}
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		py, px := p/w, p%w
		push(py-1, px)
		push(py+1, px)
		push(py, px-1)
		push(py, px+1)
	}
	out := tensor.MustNew(h, w)
	for i := range outside {
		if !outside[i] {
			out.Data()[i] = 1
		}
	}
	return out, nil
}
