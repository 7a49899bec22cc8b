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
// fabric, engine shards with their timer wheels, and per host a
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
