//go:build !race

package analytic_test

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates, so allocation counts are not exact.
const raceEnabled = false
