package workload

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/par"
)

// Run-owned clusters: every sweep point needs a multi-host cluster —
// fabric, engine shards with their event heaps, and per host a
// physical memory, VM system, adapter, kernel pool, and Genie instance.
// core.Cluster.Reset returns that graph to its post-construction state
// without reallocating it, so a sweep reuses a cluster for every point
// of its configuration instead of rebuilding. RunParallel owns the
// clusters of its run: each point worker holds at most one, in its
// par.Slot, and the grid runs in cluster-configuration order, so a
// worker's consecutive points mostly share it. A point whose
// configuration differs drops the held cluster (core.Cluster.Drop,
// which hands its page backing to mem's wire pool for the next build)
// and builds its own; when the run ends, every slot drops its cluster.
// A sweep thus holds at most one cluster per point worker, and none
// once it returns. A Reset cluster simulates bit-identically to a fresh
// one, so reuse cannot perturb the sweep digest.

// clusterKey is the comparable identity of a cluster configuration:
// clusters with equal keys are interchangeable after Reset. It is the
// testbed configuration exactly as clusterFor builds it, the topology
// by canonical string, because a topo.Spec is not comparable by value,
// and the worker count, because sim.Cluster fixes it at construction.
type clusterKey struct {
	core.TestbedConfig
	topo    string
	workers int
}

// keyFor returns the key of a cluster configuration.
func keyFor(cfg core.ClusterConfig) clusterKey {
	return clusterKey{
		TestbedConfig: cfg.TestbedConfig,
		topo: fmt.Sprintf("%d/%v/%x/%x", cfg.Topo.Hosts, cfg.Topo.Pairs,
			math.Float64bits(cfg.Topo.PerByteUS), math.Float64bits(cfg.Topo.FixedUS)),
		workers: cfg.Workers,
	}
}

// clusterSlot is one point worker's cluster: the one its last point ran
// on, with that cluster's configuration, or none.
type clusterSlot = par.Slot[clusterKey, cluster]

// cluster is a core.Cluster whose life ClustersLive follows.
type cluster struct{ *core.Cluster }

// newCluster builds a cluster and counts it live.
func newCluster(cfg core.ClusterConfig) (cluster, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return cluster{}, err
	}
	count(func(p *PerfStats) {
		p.ClustersLive++
		p.ClustersLivePeak = max(p.ClustersLivePeak, p.ClustersLive)
	})
	return cluster{c}, nil
}

// Drop drops the cluster and counts it gone.
func (c cluster) Drop() {
	c.Cluster.Drop()
	count(func(p *PerfStats) { p.ClustersLive-- })
}

// countRun adds how a run's slots got their clusters to the counters.
func countRun(st par.RecycleStats) {
	count(func(p *PerfStats) {
		p.ClustersBuilt += st.Built
		p.ClustersRecycled += st.Recycled
		p.ClusterResetFailures += st.ResetFailures
	})
}

// PerfStats is a snapshot of the workload engine's own performance
// counters: how sweeps got their clusters.
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
	// ClustersRecycled counts points served by the Reset cluster their
	// point worker held instead of a fresh construction.
	ClustersRecycled uint64 `json:"clusters_recycled"`
	// ClusterResetFailures counts clusters dropped because Reset failed;
	// always zero unless a simulation leaked state.
	ClusterResetFailures uint64 `json:"cluster_reset_failures,omitempty"`
	// ClustersLive counts clusters built and not yet dropped, and
	// ClustersLivePeak is its largest value since ResetPerf.
	ClustersLive     int `json:"clusters_live"`
	ClustersLivePeak int `json:"clusters_live_peak"`
}

// perf holds the package-wide counters.
var perf struct {
	sync.Mutex
	PerfStats
}

// count applies fn to the package-wide counters.
func count(fn func(*PerfStats)) {
	perf.Lock()
	fn(&perf.PerfStats)
	perf.Unlock()
}

// Perf returns a snapshot of the package-wide performance counters.
func Perf() PerfStats {
	perf.Lock()
	defer perf.Unlock()
	return perf.PerfStats
}

// ResetPerf zeroes the counters; ClustersLive, a count of what running
// sweeps hold, keeps its value, which becomes the peak. Tests and
// benchmarks use it to measure from a cold start.
func ResetPerf() {
	count(func(p *PerfStats) { *p = PerfStats{ClustersLive: p.ClustersLive, ClustersLivePeak: p.ClustersLive} })
}
