package experiments

import (
	"fmt"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/stats"
)

// analyticPoints counts measurement points served by the closed-form
// evaluator; simulatedSpotchecks counts the seeded oracle simulations
// BigSweep ran against it; analyticMaxRelErr holds the worst relative
// disagreement observed (as math.Float64bits, monotone under CAS-max
// because non-negative floats order like their bit patterns).
var (
	analyticPoints      atomic.Uint64
	simulatedSpotchecks atomic.Uint64
	analyticMaxRelErr   atomic.Uint64
)

// recordAnalyticErr folds a spot-check error into the package counter.
func recordAnalyticErr(bits uint64) {
	for {
		cur := analyticMaxRelErr.Load()
		if bits <= cur || analyticMaxRelErr.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// inertFaults reports whether the spec cannot change measurements: the
// zero spec disables injection, and a seed-only spec arms an injector
// that never fires.
func inertFaults(f faults.Spec) bool {
	return f == faults.Spec{Seed: f.Seed}
}

// EstimateAnalytic measures a point through the closed-form fast path
// instead of the simulator. The returned Measurement carries the same
// latency and CPU numbers Measure would produce (the analytic package's
// tests pin them bit-for-bit) but no operation records. Setups that
// inherently need a real simulation — instrumented points, traced
// points, active fault injection — are refused rather than silently
// approximated.
func EstimateAnalytic(s Setup, sem core.Semantics, length int) (Measurement, error) {
	if s.Instrument {
		return Measurement{}, fmt.Errorf("analytic estimate: instrumented points need the simulator")
	}
	if s.Tracer != nil {
		return Measurement{}, fmt.Errorf("analytic estimate: traced points need the simulator")
	}
	if !inertFaults(s.Faults) {
		return Measurement{}, fmt.Errorf("analytic estimate: fault injection needs the simulator")
	}
	e, err := analytic.Evaluate(analytic.Point{Model: s.Model, Scheme: s.Scheme, Sem: sem,
		DevOff: s.DevOff, AppOffset: s.AppOffset, Length: length, Genie: s.Genie})
	if err != nil {
		return Measurement{}, err
	}
	analyticPoints.Add(1)
	return Measurement{
		Sem:       e.Sem,
		Bytes:     e.Bytes,
		LatencyUS: e.LatencyUS,
		RxCPUUS:   e.RxCPUUS,
		TxCPUUS:   e.TxCPUUS,
	}, nil
}

// analyticLatencyFit is latencyFit through the fast path: the same
// least-squares line over the same lengths, with every point evaluated
// in closed form instead of simulated.
func analyticLatencyFit(s Setup, sem core.Semantics, lengths []int) (stats.Fit, error) {
	xs := make([]float64, len(lengths))
	ys := make([]float64, len(lengths))
	for i, b := range lengths {
		m, err := EstimateAnalytic(s, sem, b)
		if err != nil {
			return stats.Fit{}, err
		}
		xs[i], ys[i] = float64(m.Bytes), m.LatencyUS
	}
	return stats.LinearFit(xs, ys)
}
