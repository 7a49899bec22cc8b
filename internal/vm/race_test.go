//go:build race

package vm

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts, so allocation gates are skipped there.
const raceEnabled = true
