package experiments

import (
	"repro/internal/core"
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
	// measure, when set, measures each point in Measure's place. The
	// package's tests set it to simulate every point on a fresh testbed,
	// bypassing the memo: the reference every other regime must match.
	measure func(Setup, core.Semantics, int) (Measurement, error)
}

// ForEach runs fn(i) for every i in [0, n), fanning the calls across the
// worker pool (see par.Each). fn must write its result into
// caller-owned, index-i storage; distinct indices never race. The
// returned error is deterministic: among all failing indices, the error
// of the lowest one — exactly the error the serial loop would have
// returned. Indices beyond the first observed failure may be skipped.
func (r Runner) ForEach(n int, fn func(i int) error) error {
	return par.Each(n, r.Workers, func(_, i int) error { return fn(i) })
}

// measureOne measures one point: with Measure, unless r names another
// measure function.
func (r Runner) measureOne(s Setup, sem core.Semantics, length int) (Measurement, error) {
	if r.measure != nil {
		return r.measure(s, sem, length)
	}
	return Measure(s, sem, length)
}

// Probe is one measurement point: a setup, a semantics and a datagram
// length in bytes.
type Probe struct {
	Setup Setup
	Sem   core.Semantics
	Bytes int
}

// MeasureAll measures every probe, fanning them across the worker pool,
// and returns the measurements in probe order. The error is the lowest
// failing probe's, as from ForEach.
func (r Runner) MeasureAll(probes []Probe) ([]Measurement, error) {
	out := make([]Measurement, len(probes))
	err := r.ForEach(len(probes), func(i int) error {
		p := probes[i]
		m, err := r.measureOne(p.Setup, p.Sem, p.Bytes)
		out[i] = m
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepProbes lists the probes of s across sems × lengths,
// semantics-major.
func sweepProbes(s Setup, sems []core.Semantics, lengths []int) []Probe {
	probes := make([]Probe, 0, len(sems)*len(lengths))
	for _, sem := range sems {
		for _, b := range lengths {
			probes = append(probes, Probe{s, sem, b})
		}
	}
	return probes
}
