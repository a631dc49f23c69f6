package shape

import (
	"fmt"
	"math"
)

// Point is an integer pixel coordinate (x right, y down).
type Point struct {
	X, Y int
}

// otsuThreshold computes Otsu's optimal global threshold of a grayscale
// image whose values lie in [0, 1], using a 256-bin histogram. It makes the
// qualifier robust to the brightness variation of the synthetic dataset.
func otsuThreshold(data []float32) (float32, error) {
	const bins = 256
	var hist [bins]int
	if len(data) == 0 {
		return 0, fmt.Errorf("shape: otsu of empty image")
	}
	for _, v := range data {
		b := int(v * (bins - 1))
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	total := len(data)
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var sumB, wB float64
	bestVar, bestT := -1.0, 0
	for t := 0; t < bins; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > bestVar {
			bestVar = between
			bestT = t
		}
	}
	// Split in the middle of the winning bin so that values quantised into
	// bin bestT land strictly below the threshold.
	return (float32(bestT) + 0.5) / (bins - 1), nil
}

// radialSeries resamples a closed contour into len(series) centroid-to-edge
// distances at equally spaced angles — the time series of Figure 3. Angular
// bins with no contour point are filled by linear interpolation between
// neighbouring bins; the maximum distance is taken within each bin (the
// outer edge). filled is a work buffer as long as series.
func radialSeries(contour []Point, cx, cy float64, series []float64, filled []bool) error {
	n := len(series)
	if n < 4 {
		return fmt.Errorf("shape: radial series needs n >= 4, got %d", n)
	}
	if len(contour) == 0 {
		return fmt.Errorf("shape: radial series of empty contour")
	}
	clear(filled)
	for _, p := range contour {
		dx := float64(p.X) - cx
		dy := float64(p.Y) - cy
		theta := math.Atan2(dy, dx)
		if theta < 0 {
			theta += 2 * math.Pi
		}
		bin := int(theta / (2 * math.Pi) * float64(n))
		if bin >= n {
			bin = n - 1
		}
		d := math.Hypot(dx, dy)
		if !filled[bin] || d > series[bin] {
			series[bin] = d
			filled[bin] = true
		}
	}
	// Interpolate empty bins (circularly).
	anyFilled := false
	for _, f := range filled {
		if f {
			anyFilled = true
			break
		}
	}
	if !anyFilled {
		return fmt.Errorf("shape: no angular bins filled")
	}
	for i := 0; i < n; i++ {
		if filled[i] {
			continue
		}
		// Nearest filled neighbours left and right (circular).
		l := i
		for !filled[(l+n)%n] {
			l--
		}
		r := i
		for !filled[r%n] {
			r++
		}
		li, ri := (l+n)%n, r%n
		span := float64(r - l)
		frac := float64(i-l) / span
		series[i] = series[li]*(1-frac) + series[ri]*frac
	}
	return nil
}

// SmoothCircular applies a centred moving average of the given window
// (odd, >= 1) to a circular series.
func SmoothCircular(series []float64, window int) ([]float64, error) {
	if window < 1 || window%2 == 0 {
		return nil, fmt.Errorf("shape: smoothing window %d must be odd and >= 1", window)
	}
	n := len(series)
	if n == 0 {
		return nil, fmt.Errorf("shape: smoothing empty series")
	}
	out := make([]float64, n)
	half := window / 2
	for i := 0; i < n; i++ {
		var s float64
		for k := -half; k <= half; k++ {
			s += series[(i+k+n)%n]
		}
		out[i] = s / float64(window)
	}
	return out, nil
}

// countPeaks counts local maxima of a circular series that rise at least
// minProminence above the series mean, separated by at least minSpacing
// samples, listing their indices in buf. For the radial series of a regular
// k-gon this returns k: the paper's Figure 3 notes "the eight corners can
// be clearly identified".
func countPeaks(series []float64, minProminence float64, minSpacing int, buf []int) (int, error) {
	n := len(series)
	if n < 3 {
		return 0, fmt.Errorf("shape: peak counting needs >= 3 samples, got %d", n)
	}
	if minSpacing < 1 {
		minSpacing = 1
	}
	var mean float64
	for _, v := range series {
		mean += v
	}
	mean /= float64(n)

	peaks := buf[:0]
	for i := 0; i < n; i++ {
		prev := series[(i-1+n)%n]
		next := series[(i+1)%n]
		v := series[i]
		if v >= prev && v > next && v-mean >= minProminence {
			peaks = append(peaks, i)
		}
	}
	// Enforce spacing circularly: greedily keep the highest peaks. The kept
	// list overwrites the peak list in place: it never runs ahead of the
	// peak being read.
	kept := peaks[:0]
	for _, p := range peaks {
		ok := true
		for j, q := range kept {
			d := abs(p - q)
			if d > n/2 {
				d = n - d
			}
			if d < minSpacing {
				if series[p] > series[q] {
					kept[j] = p // replace the weaker peak
				}
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, p)
		}
	}
	return len(kept), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
