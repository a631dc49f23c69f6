package reliable

import "fmt"

// LeakyBucket is the error counter of Algorithm 3, following the leaky-bucket
// fault-tolerance pattern the paper cites: every incorrect operation raises
// the level by Factor and the execution is declared failed when the level
// reaches Ceiling; every correct operation lowers the level by one, floor
// zero.
//
// With the default Factor = 2 and Ceiling = 3 a stream of correctly executed
// operations "will cancel one, but not two successive errors" — the exact
// behaviour the paper states: one error raises the level to 2 (< 3, execution
// continues and the level drains), while a second error before the first has
// fully drained reaches ≥ 3 and trips the bucket.
type LeakyBucket struct {
	// Factor is added to the level on every incorrect operation.
	Factor int
	// Ceiling is the level at which the execution is declared failed.
	Ceiling int

	level   int
	peak    int
	errors  uint64
	oks     uint64
	tripped bool
}

// DefaultFactor and DefaultCeiling reproduce the paper's "one but not two
// successive errors" semantics.
const (
	DefaultFactor  = 2
	DefaultCeiling = 3
)

// NewLeakyBucket returns a bucket with the given parameters. Factor and
// ceiling must be positive. A factor at or above the ceiling makes the very
// first error fatal: the bucket degenerates to fail-fast, which is allowed.
func NewLeakyBucket(factor, ceiling int) (*LeakyBucket, error) {
	if factor < 1 {
		return nil, fmt.Errorf("reliable: bucket factor %d must be >= 1", factor)
	}
	if ceiling < 1 {
		return nil, fmt.Errorf("reliable: bucket ceiling %d must be >= 1", ceiling)
	}
	return &LeakyBucket{Factor: factor, Ceiling: ceiling}, nil
}

// NewDefaultBucket returns a bucket with the paper's semantics
// (factor 2, ceiling 3).
func NewDefaultBucket() *LeakyBucket {
	b, err := NewLeakyBucket(DefaultFactor, DefaultCeiling)
	if err != nil {
		// Unreachable: the defaults are valid by construction.
		panic(err)
	}
	return b
}

// Fail records an incorrect operation: the level rises by Factor and is
// checked against Ceiling. It returns true when the bucket trips (execution
// must be declared failed). Once tripped, the bucket stays tripped until
// Reset.
func (b *LeakyBucket) Fail() bool {
	b.errors++
	b.level += b.factor()
	if b.level > b.peak {
		b.peak = b.level
	}
	if b.level >= b.ceiling() {
		b.tripped = true
	}
	return b.tripped
}

// OK records a correctly executed operation: the level drops by one, floor
// zero (lines 18–19 of Algorithm 3).
func (b *LeakyBucket) OK() {
	b.oks++
	if b.level > 0 {
		b.level--
	}
}

// OKn records n correctly executed operations at once — the same counters
// and level as n calls to OK.
func (b *LeakyBucket) OKn(n uint64) {
	b.oks += n
	if uint64(b.level) > n {
		b.level -= int(n)
	} else {
		b.level = 0
	}
}

func (b *LeakyBucket) factor() int {
	if b.Factor < 1 {
		return DefaultFactor
	}
	return b.Factor
}

func (b *LeakyBucket) ceiling() int {
	if b.Ceiling < 1 {
		return DefaultCeiling
	}
	return b.Ceiling
}

// Tripped reports whether the bucket has reached its ceiling.
func (b *LeakyBucket) Tripped() bool { return b.tripped }

// Level returns the current bucket level.
func (b *LeakyBucket) Level() int { return b.level }

// Peak returns the highest level reached since the last Reset.
func (b *LeakyBucket) Peak() int { return b.peak }

// Errors returns the number of incorrect operations recorded.
func (b *LeakyBucket) Errors() uint64 { return b.errors }

// OKs returns the number of correct operations recorded.
func (b *LeakyBucket) OKs() uint64 { return b.oks }

// Reset drains the bucket and clears the trip latch and statistics.
func (b *LeakyBucket) Reset() {
	b.level, b.peak, b.errors, b.oks, b.tripped = 0, 0, 0, 0, false
}

// Snapshot captures the bucket's counters for reports.
type Snapshot struct {
	Level   int
	Peak    int
	Errors  uint64
	OKs     uint64
	Tripped bool
}

// Snapshot returns the current counters.
func (b *LeakyBucket) Snapshot() Snapshot {
	return Snapshot{Level: b.level, Peak: b.peak, Errors: b.errors, OKs: b.oks, Tripped: b.tripped}
}

// String renders the bucket state for diagnostics.
func (b *LeakyBucket) String() string {
	return fmt.Sprintf("bucket(level=%d/%d factor=%d errors=%d oks=%d tripped=%v)",
		b.level, b.ceiling(), b.factor(), b.errors, b.oks, b.tripped)
}
