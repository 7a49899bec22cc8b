package experiments

import (
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
)

// smallAxes is a reduced cross-product for tests: one model, all
// schemes and semantics, two offset regimes, ~200 lengths.
func smallAxes() SweepAxes {
	var lengths []int
	for n := 1; n <= netsim.MaxFrame; n += 331 {
		lengths = append(lengths, n)
	}
	return SweepAxes{
		Models:  []*cost.Model{cost.Baseline()},
		Schemes: []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering},
		Sems:    core.AllSemantics(),
		Offsets: []SweepOffset{{0, 0}, {24, 0}},
		Lengths: lengths,
	}
}

func TestBigSweepSmall(t *testing.T) {
	axes := smallAxes()
	rep, err := BigSweep(BigSweepConfig{Axes: axes, Seed: 1, SpotCheckEvery: 256})
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := uint64(len(axes.Schemes) * len(axes.Sems) * len(axes.Offsets) * len(axes.Lengths))
	if rep.Points != wantPoints {
		t.Errorf("Points = %d, want %d", rep.Points, wantPoints)
	}
	if rep.SpotChecks == 0 {
		t.Error("no spot checks ran; seed/threshold selection is broken")
	}
	if rep.MaxRelErr > 1e-9 {
		t.Errorf("max rel err %g exceeds 1e-9 (worst: %s)", rep.MaxRelErr, rep.WorstPoint)
	}
	if !rep.BoundOK {
		t.Errorf("BoundOK = false with MaxRelErr %g, bound %g", rep.MaxRelErr, rep.ErrBound)
	}
	if rep.PointsPerSec <= 0 || rep.ElapsedSec <= 0 {
		t.Errorf("degenerate rate: %v points/sec in %v sec", rep.PointsPerSec, rep.ElapsedSec)
	}
	if rep.LatencySumUS <= 0 {
		t.Errorf("latency sum %v, want positive", rep.LatencySumUS)
	}
	t.Logf("%d points, %d spot checks, %.0f points/sec, speedup %.0fx, max rel err %g",
		rep.Points, rep.SpotChecks, rep.PointsPerSec, rep.Speedup, rep.MaxRelErr)
}

// TestBigSweepBoundCanFail: the spot-check bound guards the analytic
// timing composition, so an evaluator whose wire term is off by 0.1% at
// one point must fail it and be named as the worst point.
func TestBigSweepBoundCanFail(t *testing.T) {
	defer func(orig func(analytic.Point) (analytic.Estimate, error)) { evaluate = orig }(evaluate)
	evaluate = func(p analytic.Point) (analytic.Estimate, error) {
		if p.Scheme == netsim.Pooled && p.Sem == core.Share && p.Length == 4966 {
			m := *cost.Baseline()
			m.BasePerByte *= 1.001
			p.Model = &m
		}
		return analytic.Evaluate(p)
	}
	rep, err := BigSweep(BigSweepConfig{
		Axes: SweepAxes{
			Schemes: []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled},
			Sems:    []core.Semantics{core.Copy, core.Share},
			Lengths: []int{1, 332, 4966, 8276},
		},
		Seed:           1,
		SpotCheckEvery: 1,
		ErrBound:       1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundOK || rep.MaxRelErr <= rep.ErrBound {
		t.Errorf("BoundOK = %t with MaxRelErr %g, bound %g: the perturbed point passed", rep.BoundOK, rep.MaxRelErr, rep.ErrBound)
	}
	if want := "scheme=1/share/dev=0/app=0/len=4966 "; !strings.Contains(rep.WorstPoint, want) {
		t.Errorf("WorstPoint = %q, want the perturbed point %q", rep.WorstPoint, want)
	}
}

// TestBigSweepDeterministicAcrossWorkers pins the worker-count
// independence of the report: the aggregate, the point count, and the
// spot-check set are pure functions of (axes, seed, rate).
func TestBigSweepDeterministicAcrossWorkers(t *testing.T) {
	axes := smallAxes()
	var sums []float64
	var spots []uint64
	for _, w := range []int{1, 4} {
		rep, err := BigSweep(BigSweepConfig{Axes: axes, Seed: 7, SpotCheckEvery: 512, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, rep.LatencySumUS)
		spots = append(spots, rep.SpotChecks)
	}
	if sums[0] != sums[1] {
		t.Errorf("latency sum differs across worker counts: %v vs %v", sums[0], sums[1])
	}
	if spots[0] != spots[1] {
		t.Errorf("spot-check count differs across worker counts: %d vs %d", spots[0], spots[1])
	}
}

func TestBigSweepCountersInPerf(t *testing.T) {
	ResetPerf()
	defer ResetPerf()
	axes := smallAxes()
	rep, err := BigSweep(BigSweepConfig{Axes: axes, Seed: 3, SpotCheckEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	st := Perf()
	if st.AnalyticPoints < rep.Points {
		t.Errorf("Perf().AnalyticPoints = %d, want >= %d", st.AnalyticPoints, rep.Points)
	}
	if st.SimulatedSpotchecks < rep.SpotChecks {
		t.Errorf("Perf().SimulatedSpotchecks = %d, want >= %d", st.SimulatedSpotchecks, rep.SpotChecks)
	}
	if st.MaxRelErr != rep.MaxRelErr {
		t.Errorf("Perf().MaxRelErr = %g, want %g", st.MaxRelErr, rep.MaxRelErr)
	}
}

func TestBigSweepRejectsEmptyLengths(t *testing.T) {
	_, err := BigSweep(BigSweepConfig{Axes: SweepAxes{Models: []*cost.Model{cost.Baseline()}}})
	if err == nil {
		t.Fatal("axes with models but no lengths accepted")
	}
}

func TestEstimateAnalyticMatchesMeasure(t *testing.T) {
	s := Setup{Scheme: netsim.EarlyDemux, AppOffset: 24}
	for _, sem := range core.AllSemantics() {
		for _, n := range []int{64, 1666, 8192} {
			want, err := Measure(s, sem, n)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EstimateAnalytic(s, sem, n)
			if err != nil {
				t.Fatal(err)
			}
			if got.LatencyUS != want.LatencyUS || got.RxCPUUS != want.RxCPUUS || got.TxCPUUS != want.TxCPUUS {
				t.Errorf("%v/%d: analytic (%v,%v,%v) != simulated (%v,%v,%v)",
					sem, n, got.LatencyUS, got.RxCPUUS, got.TxCPUUS,
					want.LatencyUS, want.RxCPUUS, want.TxCPUUS)
			}
			if len(got.Records) != 0 {
				t.Errorf("%v/%d: analytic estimate carries %d records", sem, n, len(got.Records))
			}
		}
	}
}

func TestEstimateAnalyticRefusesSimulationOnlySetups(t *testing.T) {
	if _, err := EstimateAnalytic(Setup{Instrument: true}, core.Copy, 64); err == nil {
		t.Error("instrumented setup accepted")
	}
	bad := Setup{}
	bad.Faults.Drop = 0.1
	if _, err := EstimateAnalytic(bad, core.Copy, 64); err == nil {
		t.Error("fault-injecting setup accepted")
	}
	// A seed-only spec never fires, so it is fine analytically.
	inert := Setup{}
	inert.Faults.Seed = 42
	if _, err := EstimateAnalytic(inert, core.Copy, 64); err != nil {
		t.Errorf("seed-only fault spec refused: %v", err)
	}
}
