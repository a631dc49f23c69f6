//go:build race

package core_test

// raceEnabled: under the race detector sync.Pool drops a share of the items
// put back on purpose, so Classify's pooled worker is rebuilt on some frames
// and bytes per frame are not a property of the code.
const raceEnabled = true
