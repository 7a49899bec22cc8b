package experiments

import (
	"time"

	"repro/internal/par"
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
// The sweep itself runs point-parallel and recycled: independent
// (semantics, depth, load) points fan across PointWorkers goroutines and
// each point reuses a warm Reset cluster from the recycler. Every worker
// count simulates the whole grid again, so the digest comparison is a
// real check. Both mechanisms are observably identical to the cold
// serial path (byte-identical digests); CompareSerialCold measures
// exactly that claim.

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
	// CompareSerialCold, when set, first times the entire verification
	// run in the serial cold regime — one point at a time, no cluster
	// recycling — and reports the optimized run's speedup over it. The
	// cold digest participates in the determinism verdict.
	CompareSerialCold bool
}

// WorkloadReport is the experiment outcome: the first run's full
// sweep, the per-worker-count digests, and the determinism verdict.
type WorkloadReport struct {
	Scenario     string           `json:"scenario"`
	PointWorkers int              `json:"point_workers"`
	Result       *workload.Result `json:"result"`
	Verification
	// SerialColdSec is the wall-clock of the whole verification run in
	// the serial/cold regime (CompareSerialCold only).
	SerialColdSec float64 `json:"serial_cold_sec,omitempty"`
	// OptimizedSec is the wall-clock of the optimized verification run
	// (point-parallel + recycled), summed over Runs.
	OptimizedSec float64 `json:"optimized_sec,omitempty"`
	// Speedup is SerialColdSec / OptimizedSec (CompareSerialCold only).
	Speedup float64 `json:"speedup_vs_serial_cold,omitempty"`
	// Perf snapshots the workload engine's counters after the run:
	// clusters built, recycled and live.
	Perf workload.PerfStats `json:"perf"`
}

// RunWorkload executes the sweep at every configured worker count. The
// first run is the reported baseline; every other run simulates the
// grid again and must reproduce its digest bit for bit. With
// CompareSerialCold the cold runs come first and join the verdict.
func RunWorkload(cfg WorkloadConfig) (*WorkloadReport, error) {
	pointWorkers := workload.ResolvePointWorkers(cfg.PointWorkers)
	rep := &WorkloadReport{PointWorkers: pointWorkers}
	var cold Verification
	var err error
	if cfg.CompareSerialCold {
		if cold, err = verifySerialCold(cfg); err != nil {
			return nil, err
		}
	}
	rep.Verification, err = verifyWorkers(cfg.Workers, func(w int) (WorkerRun, error) {
		start := time.Now()
		res, err := workload.RunParallel(cfg.Config, w, pointWorkers)
		if err != nil {
			return WorkerRun{}, err
		}
		if rep.Result == nil {
			rep.Result, rep.Scenario = res, res.Scenario
		}
		return workloadRun(res, start), nil
	})
	if err != nil {
		return nil, err
	}
	rep.OptimizedSec = rep.elapsedSec()
	if cfg.CompareSerialCold {
		rep.Deterministic = agree(append(cold.Runs, rep.Runs...))
		rep.SerialColdSec = cold.elapsedSec()
		if rep.OptimizedSec > 0 {
			rep.Speedup = rep.SerialColdSec / rep.OptimizedSec
		}
	}
	rep.Perf = workload.Perf()
	return rep, nil
}

// verifySerialCold runs the sweep at every worker count one point at a
// time with recycling off.
func verifySerialCold(cfg WorkloadConfig) (Verification, error) {
	// The inner call switches recycling off and returns its previous
	// setting, which the deferred outer call restores.
	defer par.SetRecycling(par.SetRecycling(false))
	return verifyWorkers(cfg.Workers, func(w int) (WorkerRun, error) {
		start := time.Now()
		res, err := workload.Run(cfg.Config, w)
		if err != nil {
			return WorkerRun{}, err
		}
		return workloadRun(res, start), nil
	})
}

// workloadRun records a sweep that began at start.
func workloadRun(res *workload.Result, start time.Time) WorkerRun {
	return WorkerRun{Digest: res.Digest, Records: res.CompletedOps, ElapsedSec: time.Since(start).Seconds()}
}
