package shape

import (
	"fmt"
	"math/bits"
)

// bitMask is the geometry of a binary image packed one bit per pixel, after
// van den Boomgaard & van Balen's bitmapped morphology (CVGIP: GMIP 54(3),
// 1992): row y is the words [y*stride, (y+1)*stride) of a plane, and pixel
// x is bit x%64 of the row's word x/64, so a mask up to 64 px wide takes
// one word per row. Bits past the width stay zero; a shift therefore never
// drags a pixel in from outside the frame. Planes are []uint64 slices of
// the qualifier's pooled scratch.
type bitMask struct {
	h, w, stride int
	last         uint64 // the valid bits of a row's last word
}

func newBitMask(h, w int) bitMask {
	s := (w + 63) / 64
	return bitMask{h: h, w: w, stride: s, last: ^uint64(0) >> uint(s*64-w)}
}

// morph3 writes into dst the 3×3 dilation (the OR of each pixel's
// neighbourhood) or erosion (the AND) of src, with pixels outside the frame
// counting as background. A row pass into tmp combines each row with
// itself shifted a pixel either way; a column pass combines three rows.
func (m bitMask) morph3(dst, src, tmp []uint64, dilate bool) {
	s := m.stride
	for r := 0; r < len(src); r += s {
		row, out := src[r:r+s], tmp[r:r+s]
		for k, v := range row {
			left, right := v<<1, v>>1 // the neighbours at x-1 and x+1
			if k > 0 {
				left |= row[k-1] >> 63
			}
			if k+1 < s {
				right |= row[k+1] << 63
			}
			if dilate {
				out[k] = left | v | right
			} else {
				out[k] = left & v & right
			}
		}
		out[s-1] &= m.last
	}
	for i, v := range tmp {
		var up, down uint64
		if i >= s {
			up = tmp[i-s]
		}
		if i+s < len(tmp) {
			down = tmp[i+s]
		}
		if dilate {
			dst[i] = up | v | down
		} else {
			dst[i] = up & v & down
		}
	}
}

// fillHoles writes into dst the mask with every background region that is
// not 4-connected to the frame's border filled in, turning a closed edge
// ring into a solid blob. out and bg are work planes; rev holds two rows.
func (m bitMask) fillHoles(dst, mask, out, bg, rev []uint64) {
	s := m.stride
	m.invert(bg, mask)
	// Seed the flood with the border's background pixels.
	clear(out)
	for r := 0; r < len(bg); r += s {
		if r == 0 || r+s == len(bg) {
			copy(out[r:r+s], bg[r:r+s])
			continue
		}
		out[r] = bg[r] & 1
		out[r+s-1] |= bg[r+s-1] & (1 << uint((m.w-1)&63))
	}
	m.flood(out, bg, rev)
	m.invert(dst, out)
}

// invert writes into dst the complement of src within the frame.
func (m bitMask) invert(dst, src []uint64) {
	for i, v := range src {
		dst[i] = ^v
		if i%m.stride == m.stride-1 {
			dst[i] &= m.last
		}
	}
}

// flood grows the seeds o (a subset of b) to every pixel of b 4-connected
// to one of them. It sweeps down the rows and back up, each row taking its
// neighbour rows' bits and spreading along its runs of b, until a pair of
// sweeps adds no pixel.
func (m bitMask) flood(o, b, rev []uint64) {
	s := m.stride
	for prev := -1; ; {
		for pass := 0; pass < 2*m.h; pass++ {
			r := pass * s
			if pass >= m.h {
				r = (2*m.h - 1 - pass) * s
			}
			row, brow := o[r:r+s], b[r:r+s]
			var any uint64
			for k := range row {
				v := row[k]
				if r > 0 {
					v |= o[r-s+k]
				}
				if r+s < len(o) {
					v |= o[r+s+k]
				}
				row[k] = v & brow[k]
				any |= row[k]
			}
			if any != 0 {
				spreadRow(row, brow, rev)
			}
		}
		n := 0
		for _, v := range o {
			n += bits.OnesCount64(v)
		}
		if n == prev {
			return
		}
		prev = n
	}
}

// spreadRow grows the seeds o along the runs of b holding them, both ways,
// so each seeded run of b ends up whole. Adding o to b carries each seed up
// to the top of its run; the bit-reversed row, in rev, carries it down.
func spreadRow(o, b, rev []uint64) {
	n := len(o)
	fillUp(o, b)
	ro, rb := rev[:n], rev[n:2*n]
	for k := range o {
		ro[n-1-k], rb[n-1-k] = bits.Reverse64(o[k]), bits.Reverse64(b[k])
	}
	fillUp(ro, rb)
	for k := range o {
		o[k] = bits.Reverse64(ro[n-1-k])
	}
}

// fillUp sets, in every run of b that holds a bit of o, each bit from the
// lowest such bit to the run's top. b+o clears those bits and carries into
// the zero bit above the run (or into the next word), so they are exactly
// the run bits the sum flips; o restores the seeds a second seed cleared.
func fillUp(o, b []uint64) {
	var c uint64
	for k := range o {
		var sum uint64
		sum, c = bits.Add64(b[k], o[k], c)
		o[k] |= (sum ^ b[k]) & b[k]
	}
}

// largest keeps the largest 4-connected component of solid and returns the
// plane holding it with its pixel count. Components are found in raster
// order of their first pixel, and the first found wins a tie. solid is
// consumed; comp and best are work planes, one of which is returned.
func (m bitMask) largest(solid, comp, best, rev []uint64) ([]uint64, int) {
	area := 0
	for k := range solid {
		for solid[k] != 0 {
			clear(comp)
			comp[k] = solid[k] & -solid[k]
			m.flood(comp, solid, rev)
			n := 0
			for i, v := range comp {
				solid[i] &^= v
				n += bits.OnesCount64(v)
			}
			if n > area {
				area = n
				best, comp = comp, best
			}
		}
	}
	return best, area
}

// centroid returns the centre of mass of a plane holding area pixels. A
// pixel-at-a-time float64 sum of x and y is exact while every partial sum
// is an integer below 2⁵³, so these integer sums, converted once, are the
// same numbers.
func (m bitMask) centroid(p []uint64, area int) (cx, cy float64) {
	var sx, sy int
	for i, v := range p {
		sy += i / m.stride * bits.OnesCount64(v)
		for ; v != 0; v &= v - 1 {
			sx += i%m.stride*64 + bits.TrailingZeros64(v)
		}
	}
	return float64(sx) / float64(area), float64(sy) / float64(area)
}

// mooreOffsets are the 8-neighbourhood in clockwise order starting east.
var mooreOffsets = [8][2]int{
	{1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1},
}

// trace appends to contour the closed outer boundary of the blob in p,
// traced by Moore-neighbour tracing from its first pixel in raster order
// until the trace returns there. A lone pixel is its own boundary.
func (m bitMask) trace(p []uint64, contour []Point) ([]Point, error) {
	at := func(x, y int) bool {
		return x >= 0 && x < m.w && y >= 0 && y < m.h && p[y*m.stride+x>>6]>>(x&63)&1 != 0
	}
	start := Point{-1, -1}
	for i, v := range p {
		if v != 0 {
			start = Point{i%m.stride*64 + bits.TrailingZeros64(v), i / m.stride}
			break
		}
	}
	if start.X < 0 {
		return nil, fmt.Errorf("shape: boundary trace of empty mask")
	}
	cur := start
	contour = append(contour, cur)
	// The raster scan entered the start pixel from the west; begin the
	// neighbourhood search there (index 6 is west; start one past it).
	dir := 6
	maxSteps := 4 * m.h * m.w // safety bound; a contour cannot be longer
	for step := 0; step < maxSteps; step++ {
		found := false
		for i := 0; i < 8; i++ {
			d := (dir + 1 + i) % 8
			nx, ny := cur.X+mooreOffsets[d][0], cur.Y+mooreOffsets[d][1]
			if at(nx, ny) {
				// Back-track direction: where we came from relative to the
				// new pixel, so the search resumes just past it.
				dir = (d + 4) % 8
				cur = Point{nx, ny}
				found = true
				break
			}
		}
		if !found || cur == start {
			return contour, nil
		}
		contour = append(contour, cur)
	}
	return nil, fmt.Errorf("shape: boundary trace did not close after %d steps", maxSteps)
}
