package workload

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/par"
)

// The optimization stack's whole contract is observational equivalence:
// point parallelism, cluster reuse, and shard parallelism may only
// remove redundant work or spread it out, never perturb a bit of it.
// These tests pin the contract by comparing each regime's full digest —
// which folds every latency sample, counter, and high-water mark — and
// decoded schemes with the reference path's (runFresh).

// coldCounters zeroes the counters for one test and again afterwards.
func coldCounters(t testing.TB) {
	t.Helper()
	ResetPerf()
	t.Cleanup(ResetPerf)
}

// runFresh is the sweep's reference path: every grid point simulates on
// its own empty slot, so on a cluster built for that point alone, and
// the points fold as RunParallel folds them. It also returns how the
// points' slots got their clusters.
func runFresh(t testing.TB, cfg Config, workers int) (*Result, par.RecycleStats) {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	grid := cfg.grid()
	raws := make([]*pointRaw, len(grid))
	var all par.RecycleStats
	for i, g := range grid {
		st, err := par.EachSlot(1, 1, func(slot *clusterSlot, _ int) error {
			var err error
			raws[i], err = computePoint(slot, cfg, g.sem, g.depth, g.load, workers)
			return err
		})
		if err != nil {
			t.Fatalf("fresh %s %s depth=%d load=%v: %v", cfg.Scenario, g.sem, g.depth, g.load, err)
		}
		all.Built += st.Built
		all.Recycled += st.Recycled
	}
	return fold(cfg, grid, raws), all
}

// regimeConfigs returns the sweeps the regime tests pin: a plain
// multi-semantics grid and a fault-armed one (the injector streams are
// the part of the stack most sensitive to cluster reuse — a leaked
// stream position would show up here first).
func regimeConfigs() map[string]Config {
	return map[string]Config{
		"plain": {
			Semantics: []core.Semantics{core.Copy, core.Share},
			Depths:    []int{1, 4},
			Loads:     []float64{0.5, 2},
			Ops:       6,
		},
		// Three loads per depth so each cluster config has several reuse
		// opportunities per run.
		"faultarmed": {
			Semantics: []core.Semantics{core.Copy},
			Depths:    []int{4, 16},
			Loads:     []float64{0.5, 1, 2},
			Ops:       6,
			Faults:    faults.Spec{Seed: 7, Drop: 0.02, Corrupt: 0.01},
		},
	}
}

// TestRegimesDigestIdentity runs each pinned sweep on fresh clusters,
// one per point, and then point-parallel, serially and at two point
// workers reusing each worker's held cluster, and at three shard
// workers per point, and requires byte-identical digests and deep-equal
// schemes across all of them. A serial run builds one cluster per
// configuration (depth) and serves every other point from it.
func TestRegimesDigestIdentity(t *testing.T) {
	for name, cfg := range regimeConfigs() {
		t.Run(name, func(t *testing.T) {
			coldCounters(t)
			points := uint64(len(cfg.Semantics) * len(cfg.Depths) * len(cfg.Loads))
			base, st := runFresh(t, cfg, 1)
			if st.Built != points || st.Recycled != 0 {
				t.Errorf("fresh: %d built, %d recycled, want %d and 0", st.Built, st.Recycled, points)
			}

			check := func(regime string, got *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", regime, err)
				}
				if got.Digest != base.Digest {
					t.Errorf("%s digest = %s, fresh %s", regime, got.Digest, base.Digest)
				}
				if !reflect.DeepEqual(got.Schemes, base.Schemes) {
					t.Errorf("%s schemes diverge from fresh", regime)
				}
			}

			// Point-parallel: 8 point workers racing over the grid must
			// assemble the identical fold.
			res, err := RunParallel(cfg, 1, 8)
			check("point-parallel-8", res, err)

			// Serial: the run reuses its one held cluster for every point
			// of a configuration, so it builds one per depth.
			ResetPerf()
			res, err = RunParallel(cfg, 1, 1)
			check("serial", res, err)
			depths := uint64(len(cfg.Depths))
			if p := Perf(); p.ClustersBuilt != depths || p.ClustersRecycled != points-depths {
				t.Errorf("serial: %d built, %d recycled, want %d and %d", p.ClustersBuilt, p.ClustersRecycled, depths, points-depths)
			} else if p.ClusterResetFailures != 0 {
				t.Errorf("cluster reset failures = %d, want 0", p.ClusterResetFailures)
			}
			res, err = RunParallel(cfg, 1, 2)
			check("point-parallel-2", res, err)

			// Shard-parallel: three in-cluster workers per point. The run
			// must simulate every point — one cluster take each — and still
			// reproduce the fresh digest.
			before := Perf()
			res, err = RunParallel(cfg, 3, 1)
			check("shard-parallel-3", res, err)
			after := Perf()
			gets := after.ClustersBuilt + after.ClustersRecycled - before.ClustersBuilt - before.ClustersRecycled
			if gets != points {
				t.Errorf("shard-parallel-3 run: %d cluster takes, want %d (one per grid point)", gets, points)
			}
		})
	}
}

// workloadPins are the committed digests of the three default scenario
// sweeps.
var workloadPins = []struct{ scenario, digest string }{
	{FileServer, "a2ca1b41bca7c3e3"},
	{Stream, "ee671810a7406093"},
	{FanOut, "d9778277ffb5721c"},
}

// TestWorkloadDigestsPinned pins the committed digests of the three
// default scenario sweeps (what `geniebench workload -scenario S
// -workers 1,4` prints) at one and four shard workers, both for the
// sweep, whose point workers reuse their clusters, and for the fresh
// reference path, which builds one cluster per point. A reused cluster
// that is not Reset exactly to its post-construction state changes the
// sweep's digests; a change to what the simulation computes changes
// both.
func TestWorkloadDigestsPinned(t *testing.T) {
	coldCounters(t)
	for _, pin := range workloadPins {
		cfg := Config{Scenario: pin.scenario}
		for _, workers := range []int{1, 4} {
			res, err := RunParallel(cfg, workers, 2)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", pin.scenario, workers, err)
			}
			if res.Digest != pin.digest {
				t.Errorf("%s workers=%d: digest %s, want the committed %s",
					pin.scenario, workers, res.Digest, pin.digest)
			}
			fresh, st := runFresh(t, cfg, workers)
			if fresh.Digest != pin.digest {
				t.Errorf("%s workers=%d fresh: digest %s, want the committed %s",
					pin.scenario, workers, fresh.Digest, pin.digest)
			}
			if points := uint64(len(res.Schemes) * len(res.Schemes[0].Points)); st.Built != points || st.Recycled != 0 {
				t.Errorf("%s workers=%d fresh: %d built, %d recycled, want %d and 0",
					pin.scenario, workers, st.Built, st.Recycled, points)
			}
		}
	}
	if p := Perf(); p.ClustersRecycled == 0 {
		t.Error("the sweeps never reused a cluster")
	}
}

// TestClusterBuildsBoundedUnderGC: the default file-server grid at two
// point workers runs in depth order, and each worker holds its cluster
// by strong reference until its next point needs another depth, so the
// sweep builds at most one cluster per depth per worker however often
// the collector runs. The file server's cluster configuration varies
// only with depth (the kernel pool is sized from it).
func TestClusterBuildsBoundedUnderGC(t *testing.T) {
	coldCounters(t)
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	const pointWorkers = 2
	if _, err := RunParallel(cfg, 1, pointWorkers); err != nil {
		t.Fatal(err)
	}
	p := Perf()
	if limit := uint64(len(cfg.Depths) * pointWorkers); p.ClustersBuilt > limit {
		t.Errorf("built %d clusters, want at most %d (%d depths x %d point workers)",
			p.ClustersBuilt, limit, len(cfg.Depths), pointWorkers)
	}
	points := uint64(len(cfg.Semantics) * len(cfg.Depths) * len(cfg.Loads))
	if got := p.ClustersBuilt + p.ClustersRecycled; got != points {
		t.Errorf("%d cluster takes, want one per grid point (%d)", got, points)
	}
}

// TestClusterRetentionBounded: a sweep owns its clusters. While a
// default 2-worker sweep runs, the clusters built and not yet dropped
// never outnumber its point workers, and once RunParallel returns none
// is left: after a clean sweep, and on the error path, where every
// point fails after its cluster is built.
func TestClusterRetentionBounded(t *testing.T) {
	const pointWorkers = 2
	check := func(regime string, wantErr bool, cfg Config) {
		t.Helper()
		coldCounters(t)
		_, err := RunParallel(cfg, 1, pointWorkers)
		if (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want an error: %t", regime, err, wantErr)
		}
		p := Perf()
		if p.ClustersBuilt == 0 {
			t.Fatalf("%s: no cluster built", regime)
		}
		if p.ClustersLivePeak > pointWorkers {
			t.Errorf("%s: %d clusters live at once, want at most %d (one per point worker)", regime, p.ClustersLivePeak, pointWorkers)
		}
		if p.ClustersLive != 0 {
			t.Errorf("%s: %d clusters live after RunParallel returned, want 0", regime, p.ClustersLive)
		}
	}
	check("default sweep", false, Config{})
	// A channel buffer above the largest frame fails every point's
	// connect, after its cluster is built.
	check("failing sweep", true, Config{MsgBytes: netsim.MaxFrame + 1})
}

// poisonPool fills mem's wire pool with page-sized buffers of b, as a
// dropped cluster leaves the pages its hosts wrote.
func poisonPool(b byte) {
	pages := make([][]byte, 512)
	for i := range pages {
		pages[i] = mem.GetWire(4096)
		for j := range pages[i] {
			pages[i][j] = b
		}
	}
	for _, p := range pages {
		mem.PutWire(p)
	}
}

// TestPoolPoisonOracle: a frame's first write takes its page from mem's
// wire pool, which holds dropped clusters' pages with whatever their
// hosts last wrote, so Frame.touch must clear it. With the pool full of
// nonzero pages, a frame materialized from it reads zero but for its
// first write, and the default sweeps of all three scenarios keep their
// committed digests. A sweep that does not is named with the first point
// whose results differ from a run over differently poisoned pages.
func TestPoolPoisonOracle(t *testing.T) {
	coldCounters(t)
	func() {
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
		poisonPool(0xa5)
		pm := mem.New(8, 4096)
		page := make([]byte, 4096)
		for k := range 8 {
			f, err := pm.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			f.WriteAt(k, []byte{7})
			f.ReadAt(page, 0)
			for j, c := range page {
				want := byte(0)
				if j == k {
					want = 7
				}
				if c != want {
					t.Errorf("frame %d, materialized from a poisoned pool by a write of 7 at byte %d, reads %#x at byte %d", k, k, c, j)
					break
				}
			}
		}
	}()

	for _, pin := range workloadPins {
		cfg := Config{Scenario: pin.scenario}
		poisonPool(0xa5)
		res, err := RunParallel(cfg, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest == pin.digest {
			continue
		}
		poisonPool(0x5a)
		other, err := RunParallel(cfg, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s over a poisoned pool: digest %s, want the committed %s; %s",
			pin.scenario, res.Digest, pin.digest, firstDiff(res, other))
	}
}

// firstDiff names the first point, in grid order, whose results differ
// between two sweeps of one grid.
func firstDiff(a, b *Result) string {
	for i, sa := range a.Schemes {
		for j, pa := range sa.Points {
			if !reflect.DeepEqual(pa, b.Schemes[i].Points[j]) {
				return fmt.Sprintf("first point to differ over other poison: %s depth=%d load=%v", sa.Semantics, pa.Depth, pa.Load)
			}
		}
	}
	return "no point differs over other poison"
}

// TestPointWorkerResolution pins the reported point-worker count:
// explicit counts pass through and non-positive adopts GOMAXPROCS.
func TestPointWorkerResolution(t *testing.T) {
	if got := ResolvePointWorkers(3); got != 3 {
		t.Errorf("ResolvePointWorkers(3) = %d", got)
	}
	if got := ResolvePointWorkers(0); got < 1 {
		t.Errorf("ResolvePointWorkers(0) = %d, want >= 1", got)
	}
}

// benchConfig is the single-point benchmark workload: one semantics,
// one depth, one load.
func benchConfig() Config {
	return Config{
		Semantics: []core.Semantics{core.Copy},
		Depths:    []int{4},
		Loads:     []float64{1},
		Ops:       8,
	}
}

// BenchmarkWorkloadPointColdVsRecycled measures what cluster reuse
// saves per operating point: cold runs each point on a new slot, so it
// builds the full cluster object graph and drops it after; recycled
// Resets and reuses the one cluster its point worker's slot holds.
func BenchmarkWorkloadPointColdVsRecycled(b *testing.B) {
	cfg, err := benchConfig().withDefaults()
	if err != nil {
		b.Fatal(err)
	}
	point := func(b *testing.B, slot *clusterSlot) {
		if _, err := runFileServer(slot, cfg, core.Copy, 4, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		coldCounters(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var slot clusterSlot
			point(b, &slot)
			slot.Drop()
		}
	})
	b.Run("recycled", func(b *testing.B) {
		coldCounters(b)
		var slot clusterSlot
		defer slot.Drop()
		point(b, &slot) // build the held cluster
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			point(b, &slot)
		}
	})
}

// BenchmarkSweepSerialVsPointParallel measures the point-parallel
// executor against the serial walk on a full default-sized grid.
func BenchmarkSweepSerialVsPointParallel(b *testing.B) {
	cfg := Config{
		Semantics: []core.Semantics{core.Copy, core.Share, core.EmulatedWeakMove},
		Ops:       6,
	}
	for _, pw := range []int{1, 8} {
		name := "serial"
		if pw > 1 {
			name = "pointworkers8"
		}
		b.Run(name, func(b *testing.B) {
			coldCounters(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunParallel(cfg, 1, pw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
