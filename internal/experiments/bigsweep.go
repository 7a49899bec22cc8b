package experiments

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
)

// SweepOffset is one (device placement, application placement) pair.
type SweepOffset struct {
	Dev int `json:"dev"`
	App int `json:"app"`
}

// SweepAxes is the cross-product a BigSweep evaluates: every
// combination of model, scheme, semantics, offset pair, and length is
// one point. Empty axes take the defaults below.
type SweepAxes struct {
	Models  []*cost.Model
	Schemes []netsim.InputBuffering
	Sems    []core.Semantics
	Offsets []SweepOffset
	Lengths []int
}

// DefaultSweepAxes returns the full paper cross-product: every
// platform on both networks, all three buffering schemes, all eight
// semantics, five offset regimes (aligned, misaligned both ways, and a
// page-sized device offset), and every length in [1, 65535] on a
// 47-byte stride (coprime with both page sizes and the cell payload, so
// the stride hits every alignment residue). That is 6 x 3 x 8 x 5 x
// 1395 = 1,004,400 points.
func DefaultSweepAxes() SweepAxes {
	var models []*cost.Model
	for _, p := range cost.Platforms() {
		for _, n := range []cost.Network{cost.CreditNetOC3, cost.CreditNetOC12} {
			models = append(models, cost.NewModel(p, n))
		}
	}
	var lengths []int
	for n := 1; n <= netsim.MaxFrame; n += 47 {
		lengths = append(lengths, n)
	}
	return SweepAxes{
		Models:  models,
		Schemes: []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering},
		Sems:    core.AllSemantics(),
		Offsets: []SweepOffset{{0, 0}, {24, 24}, {0, 24}, {24, 0}, {4096, 0}},
		Lengths: lengths,
	}
}

// BigSweepConfig parameterizes a sweep run.
type BigSweepConfig struct {
	// Axes is the cross-product to evaluate; zero axes take
	// DefaultSweepAxes (about a million points).
	Axes SweepAxes
	// Seed selects which points are spot-checked against the simulator.
	// Selection is a pure function of (Seed, point index), so a seed
	// reproduces its spot-check set regardless of worker count.
	Seed uint64
	// SpotCheckEvery is the expected number of points per simulated
	// spot check; 0 means one in 4096, negative disables spot checks.
	SpotCheckEvery int
	// ErrBound is the acceptance bound on the worst spot-check relative
	// error, used as given: 0 demands bit-exact agreement. The report
	// records violations; enforcement (exit status) is the caller's.
	ErrBound float64
	// Workers overrides the worker count; <= 0 takes the package default.
	Workers int
}

// BigSweepReport summarizes a sweep: scale, rate, and the verdict of
// the seeded spot-check oracle.
type BigSweepReport struct {
	// Points is the number of cross-product points evaluated.
	Points uint64 `json:"points"`
	// ElapsedSec is wall-clock time for the whole sweep.
	ElapsedSec float64 `json:"elapsed_sec"`
	// PointsPerSec is Points / ElapsedSec.
	PointsPerSec float64 `json:"points_per_sec"`
	// SpotChecks is the number of points re-run through the simulator.
	SpotChecks uint64 `json:"simulated_spotchecks"`
	// MaxRelErr is the worst analytic-vs-simulated relative error.
	MaxRelErr float64 `json:"max_rel_err"`
	// ErrBound is the acceptance bound the sweep was run against.
	ErrBound float64 `json:"err_bound"`
	// BoundOK reports MaxRelErr <= ErrBound.
	BoundOK bool `json:"bound_ok"`
	// WorstPoint describes the worst-disagreeing point, if any.
	WorstPoint string `json:"worst_point,omitempty"`
	// AnalyticPointUS and SimulatedPointUS are the mean per-point costs
	// of the two paths, and Speedup their ratio, measured inside this
	// run (per-call time summed across workers, so the ratio is
	// parallelism-independent).
	AnalyticPointUS  float64 `json:"analytic_point_us"`
	SimulatedPointUS float64 `json:"simulated_point_us"`
	Speedup          float64 `json:"speedup"`
	// LatencySumUS is the sum of all analytic latencies — a cheap
	// deterministic aggregate that pins the sweep's full output: two
	// runs over the same axes must report the identical sum.
	LatencySumUS float64 `json:"latency_sum_us"`
}

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

// evaluate is BigSweep's closed-form evaluator. Tests swap it for a
// perturbed one to show that the spot-check bound can fail.
var evaluate = analytic.Evaluate

// splitmix64 is the spot-check selector stream (same mixer the fault
// injector uses): a pure function of the seeded point index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BigSweep evaluates the cross-product of cfg.Axes through the analytic
// fast path, spot-checking a seeded pseudo-random subset of points
// against the discrete-event simulator as oracle. Workers split the
// combo space; results are folded in index order, so the report is
// deterministic for a given (axes, seed, spot-check rate) regardless of
// worker count.
func BigSweep(cfg BigSweepConfig) (BigSweepReport, error) {
	axes := cfg.Axes
	if len(axes.Models) == 0 && len(axes.Schemes) == 0 && len(axes.Sems) == 0 &&
		len(axes.Offsets) == 0 && len(axes.Lengths) == 0 {
		axes = DefaultSweepAxes()
	}
	if len(axes.Models) == 0 {
		axes.Models = []*cost.Model{cost.Baseline()}
	}
	if len(axes.Schemes) == 0 {
		axes.Schemes = DefaultSweepAxes().Schemes
	}
	if len(axes.Sems) == 0 {
		axes.Sems = core.AllSemantics()
	}
	if len(axes.Offsets) == 0 {
		axes.Offsets = []SweepOffset{{0, 0}}
	}
	if len(axes.Lengths) == 0 {
		return BigSweepReport{}, fmt.Errorf("bigsweep: no lengths to sweep")
	}

	every := cfg.SpotCheckEvery
	if every == 0 {
		every = 4096
	}
	var spotThreshold uint64
	if every > 0 {
		spotThreshold = ^uint64(0) / uint64(every)
	}

	// One combo = (model, scheme, sem, offset); each task sweeps every
	// length for its combo, so the per-task work is large enough to
	// amortize scheduling and the per-combo accumulators fold
	// deterministically by index afterwards.
	nM, nS, nSem, nO := len(axes.Models), len(axes.Schemes), len(axes.Sems), len(axes.Offsets)
	nL := len(axes.Lengths)
	combos := nM * nS * nSem * nO
	type comboAcc struct {
		latencySum  float64
		spotChecks  uint64
		analyticNS  int64
		simulatedNS int64
	}
	accs := make([]comboAcc, combos)
	ck := &analytic.Checker{}

	start := time.Now()
	r := runner()
	if cfg.Workers > 0 {
		r = Runner{Workers: cfg.Workers}
	}
	err := r.ForEach(combos, func(ci int) error {
		model := axes.Models[ci/(nS*nSem*nO)]
		scheme := axes.Schemes[ci/(nSem*nO)%nS]
		sem := axes.Sems[ci/nO%nSem]
		off := axes.Offsets[ci%nO]
		s := Setup{Model: model, Scheme: scheme, DevOff: off.Dev, AppOffset: off.App}
		acc := &accs[ci]
		p := analytic.Point{
			Model: model, Scheme: scheme, Sem: sem,
			DevOff: off.Dev, AppOffset: off.App,
		}
		t0 := time.Now()
		for li, n := range axes.Lengths {
			p.Length = n
			e, err := evaluate(p)
			if err != nil {
				return fmt.Errorf("bigsweep %s/%v/dev=%d/app=%d/len=%d: %w",
					model.Platform.Name, sem, off.Dev, off.App, n, err)
			}
			acc.latencySum += e.LatencyUS
			if spotThreshold != 0 && splitmix64(cfg.Seed+uint64(ci*nL+li)) < spotThreshold {
				analyticDone := time.Now()
				acc.analyticNS += analyticDone.Sub(t0).Nanoseconds()
				want, err := measureUncached(s, sem, n)
				if err != nil {
					return fmt.Errorf("bigsweep oracle %s/%v/len=%d: %w",
						model.Platform.Name, sem, n, err)
				}
				t0 = time.Now()
				acc.simulatedNS += t0.Sub(analyticDone).Nanoseconds()
				acc.spotChecks++
				desc := fmt.Sprintf("%s/%s/scheme=%d/%v/dev=%d/app=%d/len=%d",
					model.Platform.Name, model.Net.Name, int(scheme), sem, off.Dev, off.App, n)
				ck.Record(desc, e, want.LatencyUS, want.RxCPUUS, want.TxCPUUS)
			}
		}
		acc.analyticNS += time.Since(t0).Nanoseconds()
		return nil
	})
	if err != nil {
		return BigSweepReport{}, err
	}
	elapsed := time.Since(start)

	rep := BigSweepReport{
		Points:     uint64(combos) * uint64(nL),
		ElapsedSec: elapsed.Seconds(),
		MaxRelErr:  ck.MaxErr(),
		ErrBound:   cfg.ErrBound,
		WorstPoint: ck.Worst(),
	}
	var analyticNS, simulatedNS int64
	for i := range accs {
		rep.LatencySumUS += accs[i].latencySum
		rep.SpotChecks += accs[i].spotChecks
		analyticNS += accs[i].analyticNS
		simulatedNS += accs[i].simulatedNS
	}
	rep.BoundOK = rep.MaxRelErr <= rep.ErrBound
	if rep.ElapsedSec > 0 {
		rep.PointsPerSec = float64(rep.Points) / rep.ElapsedSec
	}
	if rep.Points > 0 {
		rep.AnalyticPointUS = float64(analyticNS) / 1e3 / float64(rep.Points)
	}
	if rep.SpotChecks > 0 {
		rep.SimulatedPointUS = float64(simulatedNS) / 1e3 / float64(rep.SpotChecks)
	}
	if rep.AnalyticPointUS > 0 && rep.SimulatedPointUS > 0 {
		rep.Speedup = rep.SimulatedPointUS / rep.AnalyticPointUS
	}

	analyticPoints.Add(rep.Points)
	simulatedSpotchecks.Add(rep.SpotChecks)
	recordAnalyticErr(math.Float64bits(rep.MaxRelErr))
	return rep, nil
}
