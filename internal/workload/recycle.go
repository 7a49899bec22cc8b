package workload

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/par"
)

// Cluster recycling: every sweep point needs a multi-host cluster —
// fabric, engine shards with their event heaps, and per host a
// physical memory, VM system, adapter, kernel pool, and Genie instance
// — and the serial sweep built that whole object graph only to throw
// it away one operating point later. core.Cluster.Reset returns the
// graph to its post-construction state without reallocating frame
// backing stores or event arenas, so the sweep keeps free lists of
// Reset clusters, one per distinct configuration, and points reuse them
// instead of rebuilding (see par.Recycler). A Reset cluster simulates
// bit-identically to a fresh one, so recycling cannot perturb the sweep
// digest.

// clusterKey is the comparable identity of a cluster configuration:
// clusters with equal keys are interchangeable after Reset. The cost
// model enters by content fingerprint and the topology by canonical
// string, because neither is comparable by value; the worker count is
// part of the key because sim.Cluster fixes it at construction.
type clusterKey struct {
	model      uint64
	buffering  netsim.InputBuffering
	overlayOff int
	frames     int
	pool       int
	outboard   int
	mtu        int
	demand     bool
	plane      string
	genie      core.Config
	faults     faults.Spec
	topo       string
	workers    int
}

// keyFor normalizes the configuration the same way NewCluster will, so
// explicitly defaulted and zero-valued configs share one free list.
func keyFor(cfg core.ClusterConfig) clusterKey {
	model := cost.Baseline()
	if cfg.Model != nil {
		model = cfg.Model
	}
	plane := mem.DataPlane(mem.Bytes)
	if cfg.Plane != nil {
		plane = cfg.Plane
	}
	genie := cfg.Genie
	if genie == (core.Config{}) {
		genie = core.DefaultConfig()
	}
	frames, pool, outboard := cfg.FramesPerHost, cfg.PoolPages, cfg.OutboardKB
	if frames == 0 {
		frames = 512
	}
	if pool == 0 {
		pool = 64
	}
	if outboard == 0 {
		outboard = 256
	}
	return clusterKey{
		model:      model.Fingerprint(),
		buffering:  cfg.Buffering,
		overlayOff: cfg.OverlayOff,
		frames:     frames,
		pool:       pool,
		outboard:   outboard,
		mtu:        cfg.MTU,
		demand:     cfg.DemandPaging,
		plane:      plane.Name(),
		genie:      genie,
		faults:     cfg.Faults,
		topo: fmt.Sprintf("%d/%v/%x/%x", cfg.Topo.Hosts, cfg.Topo.Pairs,
			math.Float64bits(cfg.Topo.PerByteUS), math.Float64bits(cfg.Topo.FixedUS)),
		workers: cfg.Workers,
	}
}

// clusters recycles sweep-point clusters keyed by configuration.
var clusters par.Recycler[clusterKey, *core.Cluster]

// PerfStats is a snapshot of the workload engine's own performance
// counters: the cluster recycler.
type PerfStats struct {
	// MemoHits, MemoMisses and MemoWaits are always zero: sweep points
	// are not memoized (a point repeats only in a determinism check,
	// which must re-simulate it). The fields stay because the benchmark
	// harness in bench/ reads them.
	MemoHits   uint64 `json:"workload_memo_hits"`
	MemoMisses uint64 `json:"workload_memo_misses"`
	MemoWaits  uint64 `json:"workload_memo_waits"`
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
	cl := clusters.Stats()
	return PerfStats{
		ClustersBuilt:        cl.Built,
		ClustersRecycled:     cl.Recycled,
		ClusterResetFailures: cl.ResetFailures,
	}
}

// ResetPerf discards the cluster free lists and zeroes the counters; the
// recycling switch (par.SetRecycling) keeps its setting. Tests and
// benchmarks use it to measure from a cold start.
func ResetPerf() { clusters.Reset() }
