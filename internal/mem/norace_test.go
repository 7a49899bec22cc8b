//go:build !race

package mem

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts, so allocation gates are skipped there.
const raceEnabled = false
