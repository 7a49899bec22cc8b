package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// fileserver-closedloop: the multi-host path. One op is one completed
// closed-loop request; one session is one workload.RunParallel sweep
// over the default semantics × depth × load grid, started with
// ResetPerf and fanned out over the bench workers. This runs
// sim.Cluster, the timer wheel, netsim.Fabric, core.Reliable, the
// cluster recycler and point fan-out; rule-3 retransmits fall on the
// tail. Every point of a sweep is distinct and only one worker count
// runs, so the workload memo costs its lookups and never hits.
//
// workload.RunParallel reports each point's latency summary, not its
// per-request samples, so the model latency samples of this workload
// are per point: each point's p50 feeds model_latency_us_p50, and each
// point's p99 feeds model_latency_us_p99.

type fileserverSpec struct {
	cfg  workload.Config // Seed is set per session
	pool int             // distinct sweeps
}

// fileserverDefault sweeps the same grid as workload's defaults, spelled
// out so that sweepOps counts the grid that runs.
var fileserverDefault = fileserverSpec{
	cfg: workload.Config{
		Scenario:  workload.FileServer,
		Semantics: core.AllSemantics(),
		Depths:    []int{1, 2, 4, 8, 16},
		Loads:     []float64{0.5, 1, 2},
		Clients:   8,
		Ops:       24,
	},
	pool: 9,
}

type fileserver struct {
	spec    fileserverSpec
	workers int
	seeds   []uint64

	p50s, p99s   []float64
	bytes, simUS float64

	points, bimodal             int
	retransmits, drops, failed  uint64
	completed                   uint64
	kernelHWM                   int
	transitionCopy              int
	hits, misses, waits         uint64
	clustersBuilt, clustersRecy uint64
}

func newFileserver(spec fileserverSpec, workers int) *fileserver {
	return &fileserver{spec: spec, workers: workers}
}

func (w *fileserver) setup(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0))
	seeds := make([]uint64, w.spec.pool)
	for k := range seeds {
		seeds[k] = rng.Uint64() | 1 // workload.Config treats seed 0 as 1
	}
	*w = fileserver{spec: w.spec, workers: w.workers, seeds: seeds, transitionCopy: -1}
	return nil
}

func (w *fileserver) poolSize() int { return w.spec.pool }

// sweepOps is the number of requests one sweep issues.
func (w *fileserver) sweepOps() int {
	c := w.spec.cfg
	return len(c.Semantics) * len(c.Depths) * len(c.Loads) * c.Clients * c.Ops
}

func (w *fileserver) session(k int, tr *tracer, p pass) sessionOut {
	ln := tr.lane(0)
	sid := ln.newID()
	t := ln.now()
	experiments.ResetPerf()
	ln.end("experiments.ResetPerf", t, 0, sid, sid)

	cfg := w.spec.cfg
	cfg.Seed = w.seeds[k]
	t = ln.now()
	res, err := workload.RunParallel(cfg, 1, w.workers)
	ln.end("workload.RunParallel", t, sid, 0, sid)
	want := w.sweepOps()
	if err != nil {
		return sessionOut{ops: want, failed: want, errs: []string{fmt.Sprintf("sweep seed %d: %v", cfg.Seed, err)}}
	}
	// res.Digest folds every latency sample, counter and high-water mark
	// of the sweep in canonical grid order.
	out := sessionOut{digest: res.Digest}
	for _, sc := range res.Schemes {
		for _, pt := range sc.Points {
			out.ops += int(pt.Completed + pt.Failed)
			out.failed += int(pt.Failed)
		}
	}
	if out.failed > 0 {
		out.errs = append(out.errs, fmt.Sprintf("sweep seed %d: %d requests abandoned", cfg.Seed, out.failed))
	}
	if out.ops != want {
		out.errs = append(out.errs, fmt.Sprintf("sweep seed %d: %d requests settled, want %d", cfg.Seed, out.ops, want))
		out.failed += max(want-out.ops, 0)
		out.ops = max(out.ops, want)
	}
	if p == warmUp {
		return out
	}

	perf := workload.Perf()
	w.hits += perf.MemoHits
	w.misses += perf.MemoMisses
	w.waits += perf.MemoWaits
	w.clustersBuilt += perf.ClustersBuilt
	w.clustersRecy += perf.ClustersRecycled
	for _, sc := range res.Schemes {
		if sc.Semantics == core.Copy.String() && p == firstPass && k == 0 {
			w.transitionCopy = sc.TransitionDepth
		}
		for _, pt := range sc.Points {
			w.points++
			w.completed += pt.Completed
			w.retransmits += pt.Retransmits
			w.drops += pt.Drops
			w.failed += pt.Failed
			if pt.Bimodal {
				w.bimodal++
			}
			w.kernelHWM = max(w.kernelHWM, pt.KernelHWM)
			if p == firstPass && pt.Latency.N > 0 {
				w.p50s = append(w.p50s, pt.Latency.P50)
				w.p99s = append(w.p99s, pt.Latency.P99)
				if pt.AchievedMBps > 0 {
					b := float64(pt.Completed) * float64(res.MsgBytes)
					w.bytes += b
					w.simUS += b / pt.AchievedMBps
				}
			}
		}
	}
	return out
}

func (w *fileserver) model() modelStats {
	return modelStats{
		p50:     midQuantile(w.p50s, 0.50),
		p99:     midQuantile(w.p99s, 0.99),
		mbPerS:  ratio(w.bytes, w.simUS),
		samples: len(w.p50s),
	}
}

func (w *fileserver) layers(m metricSet, ops int, tr *tracer) {
	m["workload.points"] = float64(w.points)
	m["workload.cluster_recycle_ratio"] = ratio(float64(w.clustersRecy), float64(w.clustersRecy+w.clustersBuilt))
	m["workload.clusters_built"] = float64(w.clustersBuilt)
	m["workload.memo_hit_ratio"] = ratio(float64(w.hits), float64(w.hits+w.misses+w.waits))
	kops := float64(w.completed) / 1000
	m["workload.retransmits_per_kop"] = ratio(float64(w.retransmits), kops)
	m["workload.drops_per_kop"] = ratio(float64(w.drops), kops)
	m["workload.failed_per_kop"] = ratio(float64(w.failed), kops)
	m["workload.bimodal_point_frac"] = ratio(float64(w.bimodal), float64(w.points))
	m["workload.kernel_hwm_pages_max"] = float64(w.kernelHWM)
	m["workload.transition_depth_copy"] = float64(w.transitionCopy)
}
