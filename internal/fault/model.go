// Package fault models the hardware failure mechanisms the paper's
// reliability machinery defends against: radiation-induced single event
// upsets (SEUs) flipping bits in arithmetic results or stored weights, and
// permanent (stuck-at) faults in individual processing elements.
//
// The package provides three building blocks:
//
//   - Model: how a 32-bit IEEE-754 word gets corrupted (bit flip, stuck-at,
//     random word replacement).
//   - ALU: the arithmetic abstraction the reliable operators of
//     internal/reliable execute on — an ideal ALU, and fault-injecting ALUs
//     with transient or permanent fault behaviour and a per-PE identity so
//     that spatial redundancy (two PEs) behaves differently from temporal
//     redundancy (one PE used twice).
//   - Campaign: statistical fault-injection runs that classify outcomes into
//     masked / corrected / detected-unrecoverable / silent-data-corruption,
//     reproducing the coverage arguments of Section II of the paper.
//
// All randomness is drawn from caller-supplied *rand.Rand values; the package
// holds no global state.
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Model corrupts a 32-bit word. Implementations must be deterministic given
// the rng stream.
type Model interface {
	// Corrupt returns a corrupted version of bits.
	Corrupt(bits uint32, rng *rand.Rand) uint32
	// String describes the model for reports.
	String() string
}

// BitFlip flips one bit of the word. If Bit is negative a uniformly random
// bit position is chosen per corruption — the canonical SEU model.
type BitFlip struct {
	// Bit is the bit position to flip (0 = LSB of the mantissa, 31 = sign).
	// Negative selects a random position for each corruption.
	Bit int
}

var _ Model = BitFlip{}

// Corrupt implements Model.
func (m BitFlip) Corrupt(bits uint32, rng *rand.Rand) uint32 {
	b := m.Bit
	if b < 0 {
		b = rng.Intn(32)
	}
	return bits ^ (1 << uint(b%32))
}

func (m BitFlip) String() string {
	if m.Bit < 0 {
		return "bitflip(random)"
	}
	return fmt.Sprintf("bitflip(bit=%d)", m.Bit)
}

// StuckAt forces one bit of the word to a fixed value. Used with a permanent
// ALU it models a stuck-at fault in a processing element's output register.
type StuckAt struct {
	Bit   int  // bit position, 0..31
	Value bool // forced value
}

var _ Model = StuckAt{}

// Corrupt implements Model.
func (m StuckAt) Corrupt(bits uint32, _ *rand.Rand) uint32 {
	mask := uint32(1) << uint(m.Bit%32)
	if m.Value {
		return bits | mask
	}
	return bits &^ mask
}

func (m StuckAt) String() string {
	v := 0
	if m.Value {
		v = 1
	}
	return fmt.Sprintf("stuckat(bit=%d,val=%d)", m.Bit, v)
}

// WordRandom replaces the entire word with random bits — the most severe
// corruption, an upper bound on SEU damage (e.g. a corrupted bus transfer).
type WordRandom struct{}

var _ Model = WordRandom{}

// Corrupt implements Model.
func (WordRandom) Corrupt(_ uint32, rng *rand.Rand) uint32 { return rng.Uint32() }

func (WordRandom) String() string { return "wordrandom" }

// CorruptFloat applies model to the IEEE-754 bit pattern of x.
func CorruptFloat(m Model, x float32, rng *rand.Rand) float32 {
	return math.Float32frombits(m.Corrupt(math.Float32bits(x), rng))
}
