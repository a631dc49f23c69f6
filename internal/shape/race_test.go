//go:build race

package shape

// raceEnabled: under the race detector sync.Pool drops a share of the items
// put back on purpose, so the qualifier's pooled scratch is rebuilt on some
// calls and allocations per call are not a property of the code.
const raceEnabled = true
