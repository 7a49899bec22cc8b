package workload

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/topo"
)

// pointMallocs runs one file-server point on a warm recycled cluster
// and returns the mallocs and bytes allocated per request: the point
// runs twice first on one point worker's slot, so its cluster, channel
// records and VM storage are all warm, and the third run is measured.
func pointMallocs(t *testing.T, sem core.Semantics, depth int) (mallocs, bytes float64) {
	t.Helper()
	cfg, err := Config{Clients: 8, Ops: 24}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var slot clusterSlot
	defer slot.drop()
	run := func() *pointRaw {
		raw, err := runFileServer(&slot, cfg, sem, depth, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	run()
	run()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	raw := run()
	runtime.ReadMemStats(&m1)
	reqs := 0
	for _, c := range raw.clients {
		reqs += len(c.lat) + int(c.failed)
	}
	if reqs != cfg.Clients*cfg.Ops {
		t.Fatalf("%v depth %d: %d requests settled, want %d", sem, depth, reqs, cfg.Clients*cfg.Ops)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(reqs), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reqs)
}

// TestFileServerPointMallocs pins the allocations of a warm recycled
// file-server point (8 clients x 24 ops, load 1) per request, for all
// eight semantics at depths 1, 4 and 16. A recycled cluster's hosts keep
// their channel records (window slots, output and send records, payload
// slices) and their VM storage (page tables and page slots, by size
// class) across Reset, Region and MemObject records are carved from
// slabs, and each client binds its callbacks once and sizes its
// per-operation records up front, so what is left is mostly the
// point's fixed setup: processes, endpoints, reliable channels and
// their closures, and the point's result. Before these, a point made
// 7.4 to 30 mallocs per request, growing with depth, and a move
// request 26 at depth 4 from the region and object its dispose builds.
// Per-port queue records (no map assignment per post or arrival), VM
// region lists and I/O reference lists from the spares and recycled
// outboard records took the 1.5-2.4 that left down to 1.2-2.1. Each
// bound is the measured value plus about a quarter. Under -race,
// sync.Pool drops a quarter of the records put back, so the pin is
// skipped there.
func TestFileServerPointMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	// Bounds per request in core.AllSemantics order: copy, emulated
	// copy, share, emulated share, move, emulated move, weak move,
	// emulated weak move.
	limits := map[int][8]float64{
		1:  {2.6, 2.5, 2.5, 2.3, 2.6, 1.8, 1.9, 1.8},
		4:  {1.7, 1.8, 1.7, 1.7, 2.1, 1.6, 1.6, 1.6},
		16: {1.9, 1.8, 1.8, 1.8, 1.8, 1.6, 1.6, 1.6},
	}
	setRegime(t, true)
	for _, depth := range []int{1, 4, 16} {
		for i, sem := range core.AllSemantics() {
			m, b := pointMallocs(t, sem, depth)
			limit := limits[depth][i]
			t.Logf("depth %2d %-18v %4.1f mallocs (limit %.1f) %5.0f bytes per request", depth, sem, m, limit, b)
			if m > limit {
				t.Errorf("depth %d %v: %.1f mallocs per request, want at most %.1f", depth, sem, m, limit)
			}
		}
	}
}

// TestFileServerPointRecords: a host pays Go memory only for the frames
// a run touches. Each warm recycled file-server point below (depth 16,
// every semantics, on the one cluster a point worker's slot holds)
// lends kernel-pool pages from the top of the pool, frames [0, KP) of
// its host, and allocates frames from KP up. So every frame handed out
// lies in [KP - pool high water, frames high water), and each host's
// PhysMem may have built records only for the RecordChunk-sized chunks
// that range covers: never one for a pool page no run lent or for a
// frame above the highest one allocated.
func TestFileServerPointRecords(t *testing.T) {
	cfg, err := Config{Clients: 8, Ops: 24}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	setRegime(t, true)
	const depth = 16
	hosts := cfg.Clients + 1
	lo, hi := make([]int, hosts), make([]int, hosts) // frames handed out, over every run
	var cluster *core.Cluster
	var slot clusterSlot
	defer slot.drop()
	for run := range 2 {
		for _, sem := range core.AllSemantics() {
			c, err := clusterFor(&slot, cfg, depth, cfg.Clients, topo.Incast(hosts), 1)
			if err != nil {
				t.Fatal(err)
			}
			if cluster == nil {
				cluster = c
				for i := range hosts {
					lo[i] = c.Host(i).Genie.KernelPool().Total()
				}
			} else if c != cluster {
				t.Fatalf("run %d %v: the slot built a second cluster", run, sem)
			}
			if _, err := fileServerOn(c, cfg, sem, depth, 1); err != nil {
				t.Fatal(err)
			}
			for i := range hosts {
				h := c.Host(i)
				if h.NIC.Pool() != nil {
					t.Fatalf("host %d has an adapter pool: the kernel pool is not frames [0, KP)", i)
				}
				kp := h.Genie.KernelPool()
				lo[i] = min(lo[i], kp.Total()-kp.HighWater())
				hi[i] = max(hi[i], h.Phys.HighWater())
			}
			slot.done()
		}
	}
	built, frames := 0, 0
	for i := range hosts {
		pm := cluster.Host(i).Phys
		chunks := (hi[i]-1)/mem.RecordChunk - lo[i]/mem.RecordChunk + 1
		if got, limit := pm.Records(), chunks*mem.RecordChunk; got > limit {
			t.Errorf("host %d built %d frame records; frames [%d, %d) were handed out, %d records in whole chunks",
				i, got, lo[i], hi[i], limit)
		}
		built += pm.Records()
		frames += pm.NumFrames()
	}
	t.Logf("%d of %d frame records built over %d hosts", built, frames, hosts)
}
