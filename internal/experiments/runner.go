package experiments

import (
	"sync/atomic"

	"repro/internal/par"
)

// Runner fans independent measurement points across a pool of worker
// goroutines. Every point in the harness — one (Setup, Semantics, length)
// tuple — builds its own testbed on its own simulation engine, so points
// are embarrassingly parallel; the only shared state is the immutable
// cost model. Results are assembled by index, which makes the parallel
// output identical to the serial one regardless of worker interleaving.
type Runner struct {
	// Workers is the number of concurrent workers; <= 0 means
	// runtime.GOMAXPROCS(0). Workers == 1 reproduces the serial path
	// bit-for-bit (the loop runs inline, no goroutines).
	Workers int
}

// ForEach runs fn(i) for every i in [0, n), fanning the calls across the
// worker pool (see par.Each). fn must write its result into
// caller-owned, index-i storage; distinct indices never race. The
// returned error is deterministic: among all failing indices, the error
// of the lowest one — exactly the error the serial loop would have
// returned. Indices beyond the first observed failure may be skipped.
func (r Runner) ForEach(n int, fn func(i int) error) error {
	return par.Each(n, r.Workers, fn)
}

// defaultWorkers is the package-wide worker count: 0 selects
// runtime.GOMAXPROCS(0). cmd/geniebench sets it from -parallel.
var defaultWorkers atomic.Int32

// SetParallelism sets the worker count used by every pairwise sweep,
// table, and ablation generator in this package and by BigSweep; the
// workload and storage sweeps take theirs from their configs. n == 1
// restores strictly serial execution; n <= 0 selects
// runtime.GOMAXPROCS(0).
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// Parallelism reports the configured worker count (0 = GOMAXPROCS).
func Parallelism() int { return int(defaultWorkers.Load()) }

// runner returns the package-default Runner.
func runner() Runner { return Runner{Workers: Parallelism()} }
