// Package sax implements Symbolic Aggregate approXimation (Lin, Keogh,
// Lonardi & Chiu, DMKD 2003), the time-series symbolisation the paper's
// qualifier block uses: "We use Symbolic Approximation (SAX), which
// effectively reduces time-series data to a string which can be cheaply
// compared to other strings."
//
// The pipeline is: z-normalise the series, reduce it with Piecewise
// Aggregate Approximation (PAA), then map each segment mean to an alphabet
// symbol via breakpoints that equiprobably partition the standard normal
// distribution. MINDIST between two SAX words lower-bounds the Euclidean
// distance between the original series, which is what makes the cheap string
// comparison sound.
package sax

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// MinAlphabet and MaxAlphabet bound the supported alphabet sizes. Sizes 3–10
// are the range tabulated in the original SAX paper; 2 is admitted because it
// is occasionally useful for coarse qualifiers.
const (
	MinAlphabet = 2
	MaxAlphabet = 20
)

// Breakpoints returns the a−1 breakpoints that divide the standard normal
// distribution into a equiprobable regions. Breakpoints are strictly
// increasing and symmetric around zero.
func Breakpoints(alphabet int) ([]float64, error) {
	if alphabet < MinAlphabet || alphabet > MaxAlphabet {
		return nil, fmt.Errorf("sax: alphabet size %d out of [%d,%d]", alphabet, MinAlphabet, MaxAlphabet)
	}
	bps := make([]float64, alphabet-1)
	for i := 1; i < alphabet; i++ {
		q, err := mathx.NormalQuantile(float64(i) / float64(alphabet))
		if err != nil {
			return nil, fmt.Errorf("sax: breakpoint %d: %w", i, err)
		}
		bps[i-1] = q
	}
	return bps, nil
}

// ZNormalize returns a z-normalised copy of series (zero mean, unit
// variance). A series whose standard deviation is below eps is returned as
// all zeros, following the common SAX convention for flat series.
func ZNormalize(series []float64, eps float64) []float64 {
	out := make([]float64, len(series))
	mean, std := mathx.MeanStd(series)
	if std < eps {
		return out
	}
	for i, x := range series {
		out[i] = (x - mean) / std
	}
	return out
}

// PAA reduces series to w segment means (Piecewise Aggregate Approximation).
// When len(series) is not divisible by w, fractional frame boundaries are
// handled by weighting elements across boundaries, the standard generalised
// PAA.
func PAA(series []float64, w int) ([]float64, error) {
	n := len(series)
	if w < 1 {
		return nil, fmt.Errorf("sax: PAA segment count %d must be >= 1", w)
	}
	if n == 0 {
		return nil, fmt.Errorf("sax: PAA of empty series")
	}
	if w > n {
		return nil, fmt.Errorf("sax: PAA segments %d exceed series length %d", w, n)
	}
	out := make([]float64, w)
	if n%w == 0 {
		seg := n / w
		for i := 0; i < w; i++ {
			var s float64
			for j := i * seg; j < (i+1)*seg; j++ {
				s += series[j]
			}
			out[i] = s / float64(seg)
		}
		return out, nil
	}
	// Generalised PAA: distribute each element's weight across frames.
	for i := 0; i < w*n; i++ {
		idx := i / n // output frame
		pos := i / w // input element
		out[idx] += series[pos]
	}
	for i := range out {
		out[i] /= float64(n)
	}
	return out, nil
}

// Word is a SAX word: symbol indices into an alphabet of the stated size.
// Symbols are stored as indices (0-based) rather than letters so that
// alphabets larger than 26 remain representable; String renders 'a'+index
// for alphabets up to 26.
type Word struct {
	Symbols  []int
	Alphabet int
}

// String renders the word as lowercase letters when the alphabet permits,
// mirroring the SAX literature (and Figure 3 of the paper, which prints the
// SAX word above the time-series plot).
func (w Word) String() string {
	if w.Alphabet > 26 {
		return fmt.Sprintf("%v", w.Symbols)
	}
	buf := make([]byte, len(w.Symbols))
	for i, s := range w.Symbols {
		if s < 0 || s >= w.Alphabet {
			return fmt.Sprintf("%v", w.Symbols)
		}
		buf[i] = byte('a' + s)
	}
	return string(buf)
}

// Equal reports whether two words are identical (same alphabet, same
// symbols).
func (w Word) Equal(o Word) bool {
	if w.Alphabet != o.Alphabet || len(w.Symbols) != len(o.Symbols) {
		return false
	}
	for i, s := range w.Symbols {
		if o.Symbols[i] != s {
			return false
		}
	}
	return true
}

// Encoder converts series to SAX words with a fixed word length and
// alphabet. It precomputes the breakpoint table and the MINDIST cell
// distances.
type Encoder struct {
	wordLen  int
	alphabet int
	bps      []float64
	cellDist [][]float64 // cellDist[r][c] per the SAX MINDIST table
	eps      float64
}

// NewEncoder returns an encoder producing words of wordLen symbols over the
// given alphabet size.
func NewEncoder(wordLen, alphabet int) (*Encoder, error) {
	if wordLen < 1 {
		return nil, fmt.Errorf("sax: word length %d must be >= 1", wordLen)
	}
	bps, err := Breakpoints(alphabet)
	if err != nil {
		return nil, err
	}
	e := &Encoder{wordLen: wordLen, alphabet: alphabet, bps: bps, eps: 1e-12}
	e.cellDist = make([][]float64, alphabet)
	for r := range e.cellDist {
		e.cellDist[r] = make([]float64, alphabet)
		for c := range e.cellDist[r] {
			if abs(r-c) <= 1 {
				continue // adjacent or identical symbols: distance 0
			}
			hi, lo := r, c
			if lo > hi {
				hi, lo = lo, hi
			}
			e.cellDist[r][c] = bps[hi-1] - bps[lo]
		}
	}
	return e, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Alphabet returns the encoder's alphabet size.
func (e *Encoder) Alphabet() int { return e.alphabet }

// Symbolize maps one z-normalised value to its alphabet symbol.
func (e *Encoder) Symbolize(v float64) int {
	// Linear scan: alphabets are tiny (≤ 20) and this is branch-predictable.
	for i, bp := range e.bps {
		if v < bp {
			return i
		}
	}
	return e.alphabet - 1
}

// Encode converts a raw series to its SAX word: z-normalise, PAA to the word
// length, then symbolise each segment mean. Each segment mean is
// PAA(ZNormalize(series)) computed in place: the same operations in the same
// order, so the same bits, without the two intermediate series.
func (e *Encoder) Encode(series []float64) (Word, error) {
	n, w := len(series), e.wordLen
	if n < w {
		return Word{}, fmt.Errorf("sax: series length %d below word length %d", n, w)
	}
	mean, std := mathx.MeanStd(series)
	z := func(x float64) float64 {
		if std < e.eps {
			return 0
		}
		return (x - mean) / std
	}
	syms := make([]int, w)
	for i := range syms {
		var s float64
		if n%w == 0 {
			seg := n / w
			for j := i * seg; j < (i+1)*seg; j++ {
				s += z(series[j])
			}
			s /= float64(seg)
		} else {
			for k := i * n; k < (i+1)*n; k++ {
				s += z(series[k/w])
			}
			s /= float64(n)
		}
		syms[i] = e.Symbolize(s)
	}
	return Word{Symbols: syms, Alphabet: e.alphabet}, nil
}

// minDist returns the MINDIST lower bound between a and b rotated left by r
// symbols (read in place), for original series of length n.
// MINDIST(Q̂, Ĉ) = sqrt(n/w) · sqrt(Σ dist(q̂ᵢ, ĉᵢ)²), which provably
// lower-bounds the Euclidean distance between the z-normalised originals.
func (e *Encoder) minDist(a, b Word, r, n int) (float64, error) {
	if a.Alphabet != e.alphabet || b.Alphabet != e.alphabet {
		return 0, fmt.Errorf("sax: word alphabets (%d,%d) do not match encoder alphabet %d",
			a.Alphabet, b.Alphabet, e.alphabet)
	}
	if len(a.Symbols) != e.wordLen || len(b.Symbols) != e.wordLen {
		return 0, fmt.Errorf("sax: word lengths (%d,%d) do not match encoder word length %d",
			len(a.Symbols), len(b.Symbols), e.wordLen)
	}
	if n < e.wordLen {
		return 0, fmt.Errorf("sax: original length %d below word length %d", n, e.wordLen)
	}
	var s float64
	for i := range a.Symbols {
		ra, rb := a.Symbols[i], b.Symbols[(i+r)%len(b.Symbols)]
		if ra < 0 || ra >= e.alphabet || rb < 0 || rb >= e.alphabet {
			return 0, fmt.Errorf("sax: symbol out of range at position %d", i)
		}
		d := e.cellDist[ra][rb]
		s += d * d
	}
	return math.Sqrt(float64(n)/float64(e.wordLen)) * math.Sqrt(s), nil
}

// MinRotationMinDist returns the smallest MINDIST between a and any rotation
// of b — the rotation-invariant variant used for closed-contour (radial)
// series, whose angular origin is arbitrary. Because MINDIST charges nothing
// for adjacent symbols, it is also robust to the phase aliasing that occurs
// when PAA segment boundaries fall near the series' natural period.
func (e *Encoder) MinRotationMinDist(a, b Word, n int) (float64, error) {
	if len(a.Symbols) != len(b.Symbols) {
		return 0, fmt.Errorf("sax: rotation mindist of words with lengths %d and %d",
			len(a.Symbols), len(b.Symbols))
	}
	w := len(b.Symbols)
	if w == 0 {
		return 0, nil
	}
	best := math.Inf(1)
	for r := 0; r < w; r++ {
		d, err := e.minDist(a, b, r, n)
		if err != nil {
			return 0, err
		}
		if d < best {
			best = d
		}
	}
	return best, nil
}
