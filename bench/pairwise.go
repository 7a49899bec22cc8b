package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/digest"
	"repro/internal/experiments"
	"repro/internal/netsim"
)

// paper-pairwise: the paper's own ATM path. One op is one
// experiments.Measure call; one session is one sweep invocation's worth
// of points, started with ResetPerf (empty memo, empty testbed free
// lists) and fanned out with Runner.ForEach. Points repeat earlier ones
// with probability 0.45, so about half the calls are served by the
// memo, close to a full geniebench sweep's ratio. The workload runs the
// memo, the testbed recycler, the runner fan-out and the symbolic plane
// over core, vm, mem, netsim and sim; it never touches the cluster,
// Reliable, workload, pagecache or blockdev layers.

type pairwiseSpec struct {
	points int // Measure calls per session
	pool   int // distinct sessions
}

var pairwiseDefault = pairwiseSpec{points: 2400, pool: 200}

type pairPoint struct {
	scheme    netsim.InputBuffering
	sem       core.Semantics
	appOffset int
	length    int
}

type pairResult struct {
	m   experiments.Measurement
	err error
}

type pairwise struct {
	spec    pairwiseSpec
	workers int
	pool    [][]pairPoint
	results []pairResult

	lat          []float64
	bytes, simUS float64

	calls, hits, misses, waits uint64
	built, recycled            uint64
}

func newPairwise(spec pairwiseSpec, workers int) *pairwise {
	return &pairwise{spec: spec, workers: workers}
}

// pairLengths is ShortSweep ∪ PageSweep: the paper's Figure 3/5 lengths.
func pairLengths() []int {
	ls := append(experiments.ShortSweep(), experiments.PageSweep(cost.Baseline().Platform.PageSize)...)
	slices.Sort(ls)
	return slices.Compact(ls)
}

func (w *pairwise) setup(seed uint64) error {
	lengths := pairLengths()
	sems := core.AllSemantics()
	w.pool = make([][]pairPoint, w.spec.pool)
	for k := range w.pool {
		rng := rand.New(rand.NewPCG(seed, uint64(k)))
		pts := make([]pairPoint, w.spec.points)
		for j := range pts {
			if j > 0 && rng.Float64() < 0.45 {
				pts[j] = pts[rng.IntN(j)]
				continue
			}
			p := pairPoint{
				scheme: netsim.InputBuffering(rng.IntN(3)), // early demux, pooled, outboard
				sem:    sems[rng.IntN(len(sems))],
			}
			if rng.IntN(3) < 2 {
				p.length = lengths[rng.IntN(len(lengths))]
			} else {
				p.length = 1 + rng.IntN(cost.MaxAAL5Datagram)
			}
			if rng.IntN(2) == 1 {
				p.appOffset = 1000 // unaligned application buffer
			}
			pts[j] = p
		}
		w.pool[k] = pts
	}
	w.results = make([]pairResult, w.spec.points)
	w.lat, w.bytes, w.simUS = nil, 0, 0
	w.calls, w.hits, w.misses, w.waits, w.built, w.recycled = 0, 0, 0, 0, 0, 0
	return nil
}

func (w *pairwise) poolSize() int { return w.spec.pool }

func (w *pairwise) session(k int, tr *tracer, p pass) sessionOut {
	pts := w.pool[k]
	ln := tr.lane(0)
	sid := ln.newID()
	t := ln.now()
	experiments.ResetPerf()
	ln.end("experiments.ResetPerf", t, 0, sid, 0)

	var lanes chan *lane
	if tr != nil {
		lanes = make(chan *lane, len(tr.lanes))
		for _, l := range tr.lanes {
			lanes <- l
		}
	}
	t = ln.now()
	// fn never returns an error, so ForEach never skips an index: each
	// point's error is recorded and the session keeps going.
	_ = experiments.Runner{Workers: w.workers}.ForEach(len(pts), func(i int) error {
		p := pts[i]
		var l *lane
		if lanes != nil {
			l = <-lanes
		}
		ts := l.now()
		m, err := experiments.Measure(experiments.Setup{Scheme: p.scheme, AppOffset: p.appOffset}, p.sem, p.length)
		if l != nil {
			id := l.newID()
			l.end("experiments.Measure", ts, id, sid, id)
			lanes <- l
		}
		w.results[i] = pairResult{m, err}
		return nil
	})
	ln.end("experiments.Runner.ForEach", t, sid, 0, 0)

	if p != warmUp {
		perf := experiments.Perf()
		w.calls += uint64(len(pts))
		w.hits += perf.CacheHits
		w.misses += perf.CacheMisses
		w.waits += perf.CacheWaits
		w.built += perf.TestbedsBuilt
		w.recycled += perf.TestbedsRecycled
	}

	out := sessionOut{ops: len(pts)}
	d := digest.New()
	for i, r := range w.results[:len(pts)] {
		if r.err != nil {
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("point %d %+v: %v", i, pts[i], r.err))
			d.Addf("err %v\n", r.err)
			continue
		}
		d.Addf("%x %x %x\n", r.m.LatencyUS, r.m.RxCPUUS, r.m.TxCPUUS)
		if p == firstPass {
			w.lat = append(w.lat, r.m.LatencyUS)
			w.bytes += float64(r.m.Bytes)
			w.simUS += r.m.LatencyUS
		}
	}
	out.digest = d.Hex()
	return out
}

func (w *pairwise) model() modelStats { return latencyModel(w.lat, w.bytes, w.simUS) }

func (w *pairwise) layers(m metricSet, ops int, tr *tracer) {
	m["experiments.measure_calls"] = float64(w.calls)
	m["experiments.memo_hit_ratio"] = ratio(float64(w.hits), float64(w.hits+w.misses+w.waits))
	m["experiments.memo_waits"] = float64(w.waits)
	m["experiments.testbed_recycle_ratio"] = ratio(float64(w.recycled), float64(w.recycled+w.built))
}

// paperErrPct is the model's accuracy figure: the largest relative
// error, in percent, of the simulated 60 KB values of Figures 3, 4, 6
// and 7 against the values the paper reports. Those reported values are
// held out of the cost model, which is calibrated on Table 6 alone.
func paperErrPct() (float64, error) {
	const length = cost.MaxAAL5Datagram
	worst := 0.0
	check := func(got, want float64) {
		worst = math.Max(worst, math.Abs(got-want)/want*100)
	}
	for _, sem := range core.AllSemantics() {
		early, err := experiments.Measure(experiments.Setup{Scheme: netsim.EarlyDemux}, sem, length)
		if err != nil {
			return 0, err
		}
		check(early.ThroughputMbps(), experiments.PaperFig3ThroughputMbps[sem])
		check(early.Utilization()*100, experiments.PaperFig4UtilizationPct[sem])
		aligned, err := experiments.Measure(experiments.Setup{Scheme: netsim.Pooled}, sem, length)
		if err != nil {
			return 0, err
		}
		check(aligned.ThroughputMbps(), experiments.PaperFig6ThroughputMbps[sem])
		unaligned, err := experiments.Measure(experiments.Setup{Scheme: netsim.Pooled, AppOffset: 1000}, sem, length)
		if err != nil {
			return 0, err
		}
		check(unaligned.ThroughputMbps(), experiments.PaperFig7ThroughputMbps[sem])
	}
	return worst, nil
}
