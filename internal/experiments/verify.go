package experiments

import (
	"fmt"
	"runtime"
	"slices"
)

// Every multi-run experiment — the cluster incast and ring, the
// closed-loop workload sweep, the storage sweep — proves its
// determinism the same way: run the identical seeded work once per
// worker count and require every run's digest and record count to equal
// the first run's. This file is that check, once.

// WorkerRun is one execution of an experiment at a fixed worker count.
type WorkerRun struct {
	Workers int    `json:"workers"`
	Digest  string `json:"digest"`
	// Records is the number of records folded into Digest: deliveries,
	// completed operations or grid points.
	Records    uint64  `json:"records"`
	ElapsedSec float64 `json:"elapsed_sec"`
}

// Verification is the outcome of running one experiment at several
// worker counts: the runs in order, the host they ran on, and whether
// every run reproduced the first.
type Verification struct {
	GOMAXPROCS    int         `json:"gomaxprocs"`
	NumCPU        int         `json:"num_cpu"`
	Runs          []WorkerRun `json:"runs"`
	Deterministic bool        `json:"deterministic"`
}

// CheckWorkers rejects a worker-count list holding a count below 1.
func CheckWorkers(workers []int) error {
	for _, w := range workers {
		if w < 1 {
			return fmt.Errorf("worker count %d < 1", w)
		}
	}
	return nil
}

// verifyWorkers calls run once per distinct worker count, in the order
// given (empty → 1 and 4), and stamps each run with its count. The
// first run is the baseline.
func verifyWorkers(workers []int, run func(w int) (WorkerRun, error)) (Verification, error) {
	if len(workers) == 0 {
		workers = []int{1, 4}
	}
	if err := CheckWorkers(workers); err != nil {
		return Verification{}, err
	}
	v := Verification{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	for i, w := range workers {
		if slices.Contains(workers[:i], w) {
			continue
		}
		r, err := run(w)
		if err != nil {
			return Verification{}, err
		}
		r.Workers = w
		v.Runs = append(v.Runs, r)
	}
	v.Deterministic = true
	for _, r := range v.Runs {
		if r.Digest != v.Runs[0].Digest || r.Records != v.Runs[0].Records {
			v.Deterministic = false
		}
	}
	return v, nil
}
