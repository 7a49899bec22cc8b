package experiments

import (
	"runtime"
	"time"

	"repro/internal/par"
	"repro/internal/workload"
)

// The closed-loop workload experiment: run one backpressure sweep
// (semantics × queue depth × offered load, see internal/workload) at
// several worker counts, digest-compare the runs, and report the
// serial baseline's schemes. This is the same determinism discipline
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

// WorkloadWorkerRun is one full sweep at a fixed worker count.
type WorkloadWorkerRun struct {
	Workers      int     `json:"workers"`
	Digest       string  `json:"digest"`
	CompletedOps uint64  `json:"completed_ops"`
	ElapsedSec   float64 `json:"elapsed_sec"`
}

// WorkloadReport is the experiment outcome: the serial baseline's full
// sweep, the per-worker-count digests, and the determinism verdict.
type WorkloadReport struct {
	Scenario      string              `json:"scenario"`
	GOMAXPROCS    int                 `json:"gomaxprocs"`
	NumCPU        int                 `json:"num_cpu"`
	PointWorkers  int                 `json:"point_workers"`
	Result        *workload.Result    `json:"result"`
	Runs          []WorkloadWorkerRun `json:"runs"`
	Deterministic bool                `json:"deterministic"`
	// SerialColdSec is the wall-clock of the whole verification run in
	// the serial/cold regime (CompareSerialCold only).
	SerialColdSec float64 `json:"serial_cold_sec,omitempty"`
	// OptimizedSec is the wall-clock of the optimized verification run
	// (point-parallel + recycled), summed over Runs.
	OptimizedSec float64 `json:"optimized_sec,omitempty"`
	// Speedup is SerialColdSec / OptimizedSec (CompareSerialCold only).
	Speedup float64 `json:"speedup_vs_serial_cold,omitempty"`
	// Perf snapshots the harness's performance counters after the run:
	// clusters recycled/built, next to the pairwise-path cache and
	// testbed counters.
	Perf PerfStats `json:"perf"`
}

// RunWorkload executes the sweep at every configured worker count. The
// first run (workers=1 unless overridden) is the reported baseline;
// every other run simulates the grid again and must reproduce its
// digest bit for bit.
func RunWorkload(cfg WorkloadConfig) (*WorkloadReport, error) {
	workers := cfg.Workers
	if len(workers) == 0 {
		workers = []int{1, 4}
	}
	pointWorkers := workload.ResolvePointWorkers(cfg.PointWorkers)
	rep := &WorkloadReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		PointWorkers:  pointWorkers,
		Deterministic: true,
	}

	coldDigest := ""
	if cfg.CompareSerialCold {
		start := time.Now()
		var err error
		if coldDigest, err = runSerialCold(cfg.Config, workers); err != nil {
			return nil, err
		}
		rep.SerialColdSec = time.Since(start).Seconds()
	}

	for _, w := range workers {
		if w < 1 {
			w = 1
		}
		start := time.Now()
		res, err := workload.RunParallel(cfg.Config, w, pointWorkers)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start).Seconds()
		rep.OptimizedSec += elapsed
		rep.Runs = append(rep.Runs, WorkloadWorkerRun{
			Workers:      w,
			Digest:       res.Digest,
			CompletedOps: res.CompletedOps,
			ElapsedSec:   elapsed,
		})
		if rep.Result == nil {
			rep.Result = res
			rep.Scenario = res.Scenario
		} else if res.Digest != rep.Result.Digest {
			rep.Deterministic = false
		}
	}
	if coldDigest != "" {
		if coldDigest != rep.Result.Digest {
			rep.Deterministic = false
		}
		if rep.OptimizedSec > 0 {
			rep.Speedup = rep.SerialColdSec / rep.OptimizedSec
		}
	}
	rep.Perf = Perf()
	return rep, nil
}

// runSerialCold runs the sweep at every worker count one point at a
// time with recycling off, and returns the first run's digest.
func runSerialCold(cfg workload.Config, workers []int) (string, error) {
	// The inner call switches recycling off and returns its previous
	// setting, which the deferred outer call restores.
	defer par.SetRecycling(par.SetRecycling(false))
	digest := ""
	for _, w := range workers {
		res, err := workload.Run(cfg, max(w, 1))
		if err != nil {
			return "", err
		}
		if digest == "" {
			digest = res.Digest
		}
	}
	return digest, nil
}
