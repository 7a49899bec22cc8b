//go:build !race

package workload

// raceEnabled reports a -race build, whose sync.Pool drops puts at
// random, so allocation counts are not exact.
const raceEnabled = false
