//go:build !race

package shape

const raceEnabled = false
