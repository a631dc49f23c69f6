package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Memory faults corrupt stored data (weights, input activations) rather than
// arithmetic. Section II of the paper cites data corruption of the weights
// and input data as a second mechanism by which SEUs critically alter CNN
// results; redundant *execution* does not protect against corrupted *storage*
// (both executions read the same wrong weight), which is why the hybrid
// architecture pairs reliable execution with an independent qualifier.

// ECCMemory simulates a memory protected by single-error-correct /
// double-error-detect (SECDED) ECC, as deployed by GPU vendors on DRAM and
// cache SRAM (Section II-C). Reads correct single-bit upsets transparently
// and flag double-bit upsets.
//
// The simulation tracks, per word, how many bit flips have accumulated; it
// does not model the check-bit layout itself, only the correct/detect/escape
// semantics.
type ECCMemory struct {
	words []float32
	flips []uint8 // accumulated upset count per word

	corrected uint64
	detected  uint64
}

// NewECCMemory returns an ECC-protected copy of data.
func NewECCMemory(data []float32) *ECCMemory {
	return &ECCMemory{
		words: append([]float32(nil), data...),
		flips: make([]uint8, len(data)),
	}
}

// Len returns the number of words.
func (m *ECCMemory) Len() int { return len(m.words) }

// Upset injects a single-bit upset into word i.
func (m *ECCMemory) Upset(i int, rng *rand.Rand) error {
	if i < 0 || i >= len(m.words) {
		return fmt.Errorf("fault: ECC upset index %d out of range", i)
	}
	m.words[i] = CorruptFloat(BitFlip{Bit: -1}, m.words[i], rng)
	if m.flips[i] < math.MaxUint8 {
		m.flips[i]++
	}
	return nil
}

// Read returns word i. Single accumulated upsets are corrected (the stored
// value is NOT repaired — correction happens on the read path, as in real
// ECC). ok is false when an uncorrectable (≥2-bit) upset is detected.
//
// Reads of uncorrupted words return the stored value with ok = true.
func (m *ECCMemory) Read(i int, original []float32) (v float32, ok bool, err error) {
	if i < 0 || i >= len(m.words) {
		return 0, false, fmt.Errorf("fault: ECC read index %d out of range", i)
	}
	switch {
	case m.flips[i] == 0:
		return m.words[i], true, nil
	case m.flips[i] == 1:
		m.corrected++
		return original[i], true, nil
	default:
		m.detected++
		return m.words[i], false, nil
	}
}

// Corrected returns the number of reads that were transparently corrected.
func (m *ECCMemory) Corrected() uint64 { return m.corrected }

// Detected returns the number of reads that flagged uncorrectable upsets.
func (m *ECCMemory) Detected() uint64 { return m.detected }
