package experiments

import (
	"time"

	"repro/internal/workload"
)

// The closed-loop workload experiment: run one backpressure sweep
// (semantics × queue depth × offered load, see internal/workload) at
// several worker counts, digest-compare the runs, and report the
// first run's schemes. This is the same determinism discipline
// as the cluster benchmarks — the digest folds every latency sample,
// counter, and high-water mark, so a single worker-count-dependent
// perturbation anywhere in the stack flips Deterministic to false.
//
// The sweep itself runs point-parallel: independent (semantics, depth,
// load) points fan across PointWorkers goroutines, and each point
// worker reuses its held cluster, Reset, for every point of the same
// configuration. Every worker count simulates the whole grid again, so
// the digest comparison is a real check. Neither mechanism changes a
// bit of the result: workload's tests compare every sweep with a
// reference run that builds a fresh cluster for each point.

// WorkloadConfig parameterizes the experiment: the sweep itself plus
// the worker counts to compare.
type WorkloadConfig struct {
	workload.Config
	// Workers lists the in-cluster shard-advance worker counts; empty →
	// 1 and 4.
	Workers []int
	// PointWorkers is the number of goroutines independent (semantics,
	// depth, load) points fan across — a different axis from Workers,
	// which parallelizes *inside* one point's cluster engine. 0 means
	// GOMAXPROCS; 1 is the strictly serial walk. Results are
	// byte-identical at any value.
	PointWorkers int
}

// WorkloadReport is the experiment outcome: the first run's full
// sweep, the per-worker-count digests, and the determinism verdict.
type WorkloadReport struct {
	Scenario     string           `json:"scenario"`
	PointWorkers int              `json:"point_workers"`
	Result       *workload.Result `json:"result"`
	Verification
	// Perf snapshots the workload engine's counters after the run:
	// clusters built, recycled and live.
	Perf workload.PerfStats `json:"perf"`
}

// RunWorkload executes the sweep at every configured worker count. The
// first run is the reported baseline; every other run simulates the
// grid again and must reproduce its digest bit for bit.
func RunWorkload(cfg WorkloadConfig) (*WorkloadReport, error) {
	pointWorkers := workload.ResolvePointWorkers(cfg.PointWorkers)
	rep := &WorkloadReport{PointWorkers: pointWorkers}
	var err error
	rep.Verification, err = verifyWorkers(cfg.Workers, func(w int) (WorkerRun, error) {
		start := time.Now()
		res, err := workload.RunParallel(cfg.Config, w, pointWorkers)
		if err != nil {
			return WorkerRun{}, err
		}
		if rep.Result == nil {
			rep.Result, rep.Scenario = res, res.Scenario
		}
		return WorkerRun{Digest: res.Digest, Records: res.CompletedOps, ElapsedSec: time.Since(start).Seconds()}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Perf = workload.Perf()
	return rep, nil
}
