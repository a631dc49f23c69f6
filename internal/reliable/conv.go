package reliable

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ConvSpec describes a 2-D convolution between a CHW input and an FCHW
// filter bank. It is shared by the reliable kernel (Algorithm 3) and the
// native baseline so Table 1 compares identical workloads.
type ConvSpec struct {
	Stride int
	Pad    int
}

// Validate checks the spec against an input/filter pair and returns the
// output spatial dimensions.
func (s ConvSpec) Validate(input, filters *tensor.Tensor) (outH, outW int, err error) {
	if s.Stride < 1 {
		return 0, 0, fmt.Errorf("reliable: stride %d must be >= 1", s.Stride)
	}
	if s.Pad < 0 {
		return 0, 0, fmt.Errorf("reliable: pad %d must be >= 0", s.Pad)
	}
	if input.Rank() != 3 {
		return 0, 0, fmt.Errorf("reliable: input must be CHW, got rank %d", input.Rank())
	}
	if filters.Rank() != 4 {
		return 0, 0, fmt.Errorf("reliable: filters must be FCHW, got rank %d", filters.Rank())
	}
	if input.Dim(0) != filters.Dim(1) {
		return 0, 0, fmt.Errorf("reliable: input channels %d != filter channels %d",
			input.Dim(0), filters.Dim(1))
	}
	h, w := input.Dim(1), input.Dim(2)
	kh, kw := filters.Dim(2), filters.Dim(3)
	if h+2*s.Pad < kh || w+2*s.Pad < kw {
		return 0, 0, fmt.Errorf("reliable: kernel %dx%d does not fit input %dx%d (pad %d)",
			kh, kw, h, w, s.Pad)
	}
	// The kernel fits and the stride is positive, so both extents are >= 1.
	return (h+2*s.Pad-kh)/s.Stride + 1, (w+2*s.Pad-kw)/s.Stride + 1, nil
}

// newOutput is the preamble the reliable kernel and the native baseline
// share: validate the spec, check that a bias has one entry per filter, and
// return reuse when it already is an (F, outH, outW) tensor of the output's
// shape, else allocate one. NativeConv2D keeps its own plain
// loop nest on purpose — the native row of Table 1 and the benchmark's
// oracle must be code the compiler sees through and must not share the
// kernel under test.
func (s ConvSpec) newOutput(input, filters *tensor.Tensor, bias []float32, reuse *tensor.Tensor) (*tensor.Tensor, error) {
	outH, outW, err := s.Validate(input, filters)
	if err != nil {
		return nil, err
	}
	nf := filters.Dim(0)
	if bias != nil && len(bias) != nf {
		return nil, fmt.Errorf("reliable: bias length %d != filters %d", len(bias), nf)
	}
	if reuse != nil && reuse.Rank() == 3 && reuse.Dim(0) == nf && reuse.Dim(1) == outH && reuse.Dim(2) == outW {
		return reuse, nil
	}
	return tensor.New(nf, outH, outW)
}

// Conv2D executes the full convolution layer with the reliable kernel of
// Algorithm 3. bias may be nil (no bias) or have one entry per filter.
//
// Detection is per output row, replay is per operation. On an engine whose
// operators are DMR over fault-free ALUs (see NewEngine) each row (f, oy) is
// computed twice by convRowPass and the two copies are compared once; a row
// that agrees is booked as the 2·m operations (m valid MACs) its scalar
// execution would have recorded. A row that disagrees — on a fault-free ALU
// only a NaN can — is recomputed from its start by convRow, where every
// multiply and every accumulate goes through the engine's retry/bucket
// protocol, so retries, Stats, the bucket and the error text are exactly
// those of the scalar kernel. Every other engine runs convRow on every row.
//
// On a persistent-error abort the partially computed output is discarded and
// ErrBucketTripped is returned (wrapped, with the failing output coordinate).
func Conv2D(e *Engine, input, filters *tensor.Tensor, bias []float32, spec ConvSpec) (*tensor.Tensor, error) {
	return Conv2DInto(e, nil, input, filters, bias, spec)
}

// Conv2DInto is Conv2D writing into out when out already has the output's
// (F, outH, outW) shape — every element is overwritten, so its old contents
// never matter — and into a fresh tensor otherwise; it returns the tensor it
// wrote. A caller that convolves frame after frame passes its previous
// output back and allocates it once. After an error out holds a partial
// result.
func Conv2DInto(e *Engine, out, input, filters *tensor.Tensor, bias []float32, spec ConvSpec) (*tensor.Tensor, error) {
	out, err := spec.newOutput(input, filters, bias, out)
	if err != nil {
		return nil, err
	}
	outH, outW := out.Dim(1), out.Dim(2)
	g := newConvGeom(input, filters, bias, spec, outW, e.spans)
	e.spans = g.spans
	if e.rows {
		if cap(e.twin) < outW {
			e.twin = make([]float32, outW)
		}
		if rowAsm && g.stride == 1 {
			e.masks = g.setMasks(e.masks, outW)
		}
	}
	od := out.Data()
	for f := 0; f < out.Dim(0); f++ {
		for oy := 0; oy < outH; oy++ {
			row := od[(f*outH+oy)*outW:][:outW]
			if e.rows && e.convRowDMR(&g, row, f, oy) {
				continue
			}
			if err := e.convRow(&g, row, f, oy); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// convGeom is the loop geometry of one convolution: the operands, the
// layout and, per filter column kx, the span [lo, hi) of output columns
// whose input column ox·stride − pad + kx lies inside the image.
type convGeom struct {
	in, fl, bias          []float32
	inC, inH, inW, kh, kw int
	stride, pad           int
	spans                 []colSpan
	width                 int // Σ over kx of hi − lo
	// masks is the SIMD row kernel's lane-mask table (setMasks); nil when
	// convRowPass runs the Go loop.
	masks []int32
}

type colSpan struct{ lo, hi int }

// newConvGeom builds the geometry, its spans in buf's storage (grown to kw
// when short) so that a long-lived engine computes them without allocating.
func newConvGeom(input, filters *tensor.Tensor, bias []float32, spec ConvSpec, outW int, buf []colSpan) convGeom {
	g := convGeom{
		in: input.Data(), fl: filters.Data(), bias: bias,
		inC: input.Dim(0), inH: input.Dim(1), inW: input.Dim(2),
		kh: filters.Dim(2), kw: filters.Dim(3),
		stride: spec.Stride, pad: spec.Pad,
	}
	if cap(buf) < g.kw {
		buf = make([]colSpan, g.kw)
	}
	g.spans = buf[:g.kw]
	for kx := range g.spans {
		// ox·s − pad + kx ≥ 0  ⇔  ox ≥ ⌈(pad − kx)/s⌉
		lo := 0
		if d := g.pad - kx; d > 0 {
			lo = (d + g.stride - 1) / g.stride
		}
		// ox·s − pad + kx ≤ inW − 1  ⇔  ox ≤ ⌊(inW − 1 + pad − kx)/s⌋
		hi := 0
		if d := g.inW - 1 + g.pad - kx; d >= 0 {
			hi = min(outW, d/g.stride+1)
		}
		g.spans[kx] = colSpan{}
		if lo < hi {
			g.spans[kx] = colSpan{lo, hi}
			g.width += hi - lo
		}
	}
	return g
}

// rowBlock is the SIMD row kernel's register block: four 8-lane YMM
// accumulators.
const rowBlock = 32

// setMasks builds the SIMD row kernel's lane-mask table in buf (grown when
// short) and points g at it. For each rowBlock-column block of the output
// row it holds kw tap masks — lane j on (sign bit set) where column
// block·rowBlock + j lies in that kx's span — then one store mask, lane j
// on where the column lies inside the row. Bit 0 of a tap mask's first lane
// flags a tap whose span covers every column of the block inside the row:
// the kernel adds it without blending.
func (g *convGeom) setMasks(buf []int32, outW int) []int32 {
	const on, covers = math.MinInt32, 1
	blocks := (outW + rowBlock - 1) / rowBlock
	n := blocks * (g.kw + 1) * rowBlock
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	i := 0
	for b := 0; b < blocks; b++ {
		lo, hi := b*rowBlock, min((b+1)*rowBlock, outW)
		for kx := 0; kx <= g.kw; kx++ {
			s := colSpan{0, outW}
			if kx < g.kw {
				s = g.spans[kx]
			}
			m := buf[i : i+rowBlock]
			for j := range m {
				m[j] = 0
				if ox := lo + j; s.lo <= ox && ox < s.hi {
					m[j] = on
				}
			}
			if kx < g.kw && s.lo <= lo && hi <= s.hi {
				m[0] |= covers
			}
			i += rowBlock
		}
	}
	g.masks = buf
	return buf
}

// macs returns the number of valid (unclipped) MACs of output row oy.
func (g *convGeom) macs(oy int) int {
	iy0 := oy*g.stride - g.pad
	rows := min(g.kh, g.inH-iy0) - max(0, -iy0)
	return g.inC * max(0, rows) * g.width
}

// convRowDMR computes output row (f, oy) twice, into row and into the
// engine's twin buffer, and compares the copies element by element. If they
// agree it books the row's operations and returns true; otherwise it touches
// neither Stats nor the bucket and returns false, and the caller replays the
// row through convRow.
func (e *Engine) convRowDMR(g *convGeom, row []float32, f, oy int) bool {
	twin := e.twin[:len(row)]
	convRowPass(row, g, f, oy)
	convRowPass(twin, g, f, oy)
	for i, v := range row {
		if v != twin[i] {
			return false
		}
	}
	n := 2 * uint64(g.macs(oy))
	e.stats.Ops += n
	e.bucket.OKn(n)
	return true
}

// convRowPass computes output row (f, oy) into acc tap-major: for each tap
// (c, ky, kx), in the scalar kernel's order, it adds the tap's product to
// every output column it reaches. Per output element that is the scalar
// kernel's exact sequence of float32 operations — the explicit conversion
// (in the vector kernel, VMULPS) rounds each product before the add, so
// nothing fuses. A geometry with a mask table (stride 1, AVX2) runs the
// vector kernel, every other the Go loop below; the two are equal bit for
// bit. It must not be inlined: the two passes convRowDMR compares are two
// executions.
//
//go:noinline
func convRowPass(acc []float32, g *convGeom, f, oy int) {
	if g.masks != nil {
		convRowSIMD(acc, g, f, oy)
		return
	}
	var b float32
	if g.bias != nil {
		b = g.bias[f]
	}
	for i := range acc {
		acc[i] = b
	}
	iy0 := oy*g.stride - g.pad
	taps := g.kh * g.kw
	for c := 0; c < g.inC; c++ {
		for ky := 0; ky < g.kh; ky++ {
			iy := iy0 + ky
			if iy < 0 || iy >= g.inH {
				continue
			}
			in := g.in[(c*g.inH+iy)*g.inW:][:g.inW]
			w := g.fl[(f*g.inC+c)*taps+ky*g.kw:][:g.kw]
			for kx, s := range g.spans {
				if s.lo == s.hi {
					continue
				}
				dst := acc[s.lo:s.hi]
				x0 := s.lo*g.stride - g.pad + kx
				wk := w[kx]
				if g.stride == 1 {
					src := in[x0:][:len(dst)]
					for i, v := range src {
						dst[i] += float32(v * wk)
					}
					continue
				}
				for i := range dst {
					dst[i] += float32(in[x0+i*g.stride] * wk)
				}
			}
		}
	}
}

// convRowSIMD is convRowPass on the AVX2 kernel (stride 1, g.masks set):
// it hands the kernel the rows of the kernel window that lie inside the
// image, as the Go loop skips the others.
func convRowSIMD(acc []float32, g *convGeom, f, oy int) {
	var b float32
	if g.bias != nil {
		b = g.bias[f]
	}
	iy0 := oy - g.pad
	kyLo, kyHi := max(0, -iy0), min(g.kh, g.inH-iy0)
	if kyLo >= kyHi || len(g.in) == 0 {
		// No input under the window: the row is its bias.
		for i := range acc {
			acc[i] = b
		}
		return
	}
	taps := g.kh * g.kw
	convRowKernel(&acc[0], &g.in[0], &g.fl[f*g.inC*taps+kyLo*g.kw], &g.masks[0],
		int64((iy0+kyLo)*g.inW-g.pad), int64(g.inH*g.inW), int64(g.inW),
		int64(g.inC), int64(kyHi-kyLo), int64(g.kw), int64(taps),
		int64(len(g.masks)/((g.kw+1)*rowBlock)), b)
}

// convRow computes output row (f, oy) element by element, every multiply
// and accumulate through the engine's retry/bucket protocol (Algorithm 3).
// It is the whole kernel for engines without the row path and the replay of
// a row whose two passes disagreed.
func (e *Engine) convRow(g *convGeom, row []float32, f, oy int) error {
	fBase := f * g.inC * g.kh * g.kw
	iy0 := oy*g.stride - g.pad
	for ox := range row {
		var acc float32
		if g.bias != nil {
			acc = g.bias[f]
		}
		ix0 := ox*g.stride - g.pad
		for c := 0; c < g.inC; c++ {
			cBase := c * g.inH * g.inW
			kBase := fBase + c*g.kh*g.kw
			for ky := 0; ky < g.kh; ky++ {
				iy := iy0 + ky
				if iy < 0 || iy >= g.inH {
					continue
				}
				rowBase := cBase + iy*g.inW
				kRow := kBase + ky*g.kw
				for kx := 0; kx < g.kw; kx++ {
					ix := ix0 + kx
					if ix < 0 || ix >= g.inW {
						continue
					}
					var err error
					acc, err = e.MAC(acc, g.in[rowBase+ix], g.fl[kRow+kx])
					if err != nil {
						return fmt.Errorf("reliable: conv output (%d,%d,%d): %w", f, oy, ox, err)
					}
				}
			}
		}
		row[ox] = acc
	}
	return nil
}

// NativeConv2D is the unprotected reference implementation: plain float32
// loops with no overloading, no qualifiers and no error accounting. It is
// the "native execution" row of Table 1 and the oracle fault campaigns
// compare against.
func NativeConv2D(input, filters *tensor.Tensor, bias []float32, spec ConvSpec) (*tensor.Tensor, error) {
	out, err := spec.newOutput(input, filters, bias, nil)
	if err != nil {
		return nil, err
	}
	nf, outH, outW := out.Dim(0), out.Dim(1), out.Dim(2)
	inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2)
	kh, kw := filters.Dim(2), filters.Dim(3)

	in := input.Data()
	fl := filters.Data()
	od := out.Data()
	for f := 0; f < nf; f++ {
		fBase := f * inC * kh * kw
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				var acc float32
				if bias != nil {
					acc = bias[f]
				}
				iy0 := oy*spec.Stride - spec.Pad
				ix0 := ox*spec.Stride - spec.Pad
				for c := 0; c < inC; c++ {
					cBase := c * inH * inW
					kBase := fBase + c*kh*kw
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						rowBase := cBase + iy*inW
						kRow := kBase + ky*kw
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < inW {
								acc += in[rowBase+ix] * fl[kRow+kx]
							}
						}
					}
				}
				od[(f*outH+oy)*outW+ox] = acc
			}
		}
	}
	return out, nil
}

// MACCount returns the number of multiply–accumulate pairs a convolution
// performs (ignoring padding clipping, i.e. an upper bound that is exact for
// pad 0), used by the guarantee calculator and the benchmark reports.
func MACCount(input, filters *tensor.Tensor, spec ConvSpec) (uint64, error) {
	outH, outW, err := spec.Validate(input, filters)
	if err != nil {
		return 0, err
	}
	per := uint64(filters.Dim(1)) * uint64(filters.Dim(2)) * uint64(filters.Dim(3))
	return uint64(filters.Dim(0)) * uint64(outH) * uint64(outW) * per, nil
}
