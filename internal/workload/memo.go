package workload

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/par"
)

// The workload-point memo: a sweep point is a pure function of the
// workload configuration and its (semantics, depth, load) coordinates —
// and of nothing else. In particular the in-cluster shard-advance
// worker count is *not* part of the identity: the whole determinism
// contract of the cluster engine is that any worker count simulates
// bit-identically, so RunWorkload's multi-worker digest comparison can
// simulate each point once and let the other worker counts verify
// against the memo instead of recomputing — the default {1, 4}-worker
// verification run costs ~1x rather than ~2x the sweep. The memo is a
// single-flight par.Memo, like the measurement memo on the pairwise
// path: racing point workers asking for the same point block on the
// in-flight entry instead of computing it twice.

// pointKey identifies one operating point up to simulation determinism.
// Every Config field that reaches the simulation is present; the
// scenario-irrelevant fields still key (a fileserver point ignores
// StreamMBps, but keying it costs nothing and keeps the key a plain
// value copy of the normalized config).
type pointKey struct {
	scenario   string
	clients    int
	ops        int
	msgBytes   int
	thinkUS    float64
	pipeline   int
	streamMBps float64
	window     int
	rtoUS      float64
	faults     faults.Spec
	seed       uint64
	sem        core.Semantics
	depth      int
	load       float64
}

// memoKeyFor builds the point key from a normalized Config.
func memoKeyFor(cfg Config, sem core.Semantics, depth int, load float64) pointKey {
	return pointKey{
		scenario:   cfg.Scenario,
		clients:    cfg.Clients,
		ops:        cfg.Ops,
		msgBytes:   cfg.MsgBytes,
		thinkUS:    cfg.ThinkUS,
		pipeline:   cfg.Pipeline,
		streamMBps: cfg.StreamMBps,
		window:     cfg.Window,
		rtoUS:      cfg.RTOUS,
		faults:     cfg.Faults,
		seed:       cfg.Seed,
		sem:        sem,
		depth:      depth,
		load:       load,
	}
}

// pointKeyHash spreads point keys over the memo's stripes (FNV-1a over
// the key's discriminating fields). Equality is still decided by the
// full key.
func pointKeyHash(k pointKey) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(k.sem)<<32 | uint64(k.depth))
	mix(jitter(k.seed, k.depth, int(100*k.load)))
	for i := 0; i < len(k.scenario); i++ {
		h ^= uint64(k.scenario[i])
		h *= prime
	}
	return h
}

// pointMemo is the package-wide memo. A memoized *pointRaw is shared by
// reference and only ever read (makePoint and foldPoint are pure
// readers).
var pointMemo = par.NewMemo[pointKey, *pointRaw](pointKeyHash)

// memoPoint returns the memoized raw observations for the point,
// computing them on a miss. workers is deliberately absent from the
// key — points are worker-count invariant, and that is the point.
func memoPoint(cfg Config, sem core.Semantics, depth int, load float64, workers int) (*pointRaw, error) {
	return pointMemo.Do(memoKeyFor(cfg, sem, depth, load), func() (*pointRaw, error) {
		return computePoint(cfg, sem, depth, load, workers)
	})
}

// PerfStats is a snapshot of the workload engine's own performance
// counters: the point memo and the cluster recycler.
type PerfStats struct {
	// MemoHits counts points served by a completed memo entry.
	MemoHits uint64 `json:"workload_memo_hits"`
	// MemoMisses counts points that simulated from scratch.
	MemoMisses uint64 `json:"workload_memo_misses"`
	// MemoWaits counts points that blocked on another worker computing
	// the same point (single-flight dedupe).
	MemoWaits uint64 `json:"workload_memo_waits"`
	// ClustersBuilt counts clusters constructed from scratch.
	ClustersBuilt uint64 `json:"clusters_built"`
	// ClustersRecycled counts points served by a Reset cluster from a
	// free list instead of a fresh construction.
	ClustersRecycled uint64 `json:"clusters_recycled"`
	// ClusterResetFailures counts clusters dropped because Reset failed;
	// always zero unless a simulation leaked state.
	ClusterResetFailures uint64 `json:"cluster_reset_failures,omitempty"`
}

// Perf returns a snapshot of the package-wide performance counters.
func Perf() PerfStats {
	memo, cl := pointMemo.Stats(), clusters.Stats()
	return PerfStats{
		MemoHits:             memo.Hits,
		MemoMisses:           memo.Misses,
		MemoWaits:            memo.Waits,
		ClustersBuilt:        cl.Built,
		ClustersRecycled:     cl.Recycled,
		ClusterResetFailures: cl.ResetFailures,
	}
}

// ResetPerf discards the memo contents and the cluster free lists and
// zeroes all performance counters. The switches (par.SetMemo,
// par.SetRecycling) keep their settings. Tests and benchmarks use it to
// measure from a cold start.
func ResetPerf() {
	pointMemo.Reset()
	clusters.Reset()
}
