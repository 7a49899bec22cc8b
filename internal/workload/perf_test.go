package workload

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/par"
)

// The optimization stack's whole contract is observational equivalence:
// point parallelism, cluster recycling, and shard parallelism may only
// remove redundant work or spread it out, never perturb a bit of it. These tests pin the
// contract by running the same sweep in every regime and comparing the
// full digest — which folds every latency sample, counter, and
// high-water mark — plus the decoded schemes.

// setRegime pins the recycling switch for one test and restores it
// afterwards, with cold counters and empty free lists on both sides.
func setRegime(t testing.TB, recycle bool) {
	t.Helper()
	ResetPerf()
	recycleWas := par.SetRecycling(recycle)
	t.Cleanup(func() {
		par.SetRecycling(recycleWas)
		ResetPerf()
	})
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
		// opportunities per run: under -race, sync.Pool randomly drops a
		// quarter of Puts, and a two-point grid could plausibly see zero
		// recycles.
		"faultarmed": {
			Semantics: []core.Semantics{core.Copy},
			Depths:    []int{4, 16},
			Loads:     []float64{0.5, 1, 2},
			Ops:       6,
			Faults:    faults.Spec{Seed: 7, Drop: 0.02, Corrupt: 0.01},
		},
	}
}

// TestRegimesDigestIdentity runs each pinned sweep in four regimes —
// serial cold, point-parallel cold, serial with cluster recycling, and
// three shard workers per point — and requires byte-identical digests
// and deep-equal schemes across all of them.
func TestRegimesDigestIdentity(t *testing.T) {
	for name, cfg := range regimeConfigs() {
		t.Run(name, func(t *testing.T) {
			setRegime(t, false)
			base, err := RunParallel(cfg, 1, 1)
			if err != nil {
				t.Fatal(err)
			}

			check := func(regime string, got *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", regime, err)
				}
				if got.Digest != base.Digest {
					t.Errorf("%s digest = %s, serial cold %s", regime, got.Digest, base.Digest)
				}
				if !reflect.DeepEqual(got.Schemes, base.Schemes) {
					t.Errorf("%s schemes diverge from serial cold", regime)
				}
			}

			// Point-parallel, still cold: 8 point workers racing over the
			// grid must assemble the identical fold.
			res, err := RunParallel(cfg, 1, 8)
			check("point-parallel-8", res, err)

			// Recycled: the second pass reuses Reset clusters from the
			// first. Recycling must actually fire for the regime to be
			// exercised.
			par.SetRecycling(true)
			res, err = RunParallel(cfg, 1, 1)
			check("recycle-warmup", res, err)
			res, err = RunParallel(cfg, 1, 1)
			check("recycled", res, err)
			if p := Perf(); p.ClustersRecycled == 0 {
				t.Error("recycled regime never reused a cluster")
			} else if p.ClusterResetFailures != 0 {
				t.Errorf("cluster reset failures = %d, want 0", p.ClusterResetFailures)
			}

			// Shard-parallel: three in-cluster workers per point. The run
			// must simulate every point — one cluster get each — and still
			// reproduce the cold digest.
			before := Perf()
			res, err = RunParallel(cfg, 3, 1)
			check("shard-parallel-3", res, err)
			after := Perf()
			points := uint64(len(cfg.Semantics) * len(cfg.Depths) * len(cfg.Loads))
			gets := after.ClustersBuilt + after.ClustersRecycled - before.ClustersBuilt - before.ClustersRecycled
			if gets != points {
				t.Errorf("shard-parallel-3 run: %d cluster gets, want %d (one per grid point)", gets, points)
			}
		})
	}
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

// BenchmarkWorkloadPointColdVsRecycled measures what cluster recycling
// saves per operating point: cold builds the full cluster object graph
// every iteration, recycled Resets and reuses it.
func BenchmarkWorkloadPointColdVsRecycled(b *testing.B) {
	cfg := benchConfig()
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunParallel(cfg, 1, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		setRegime(b, false)
		run(b)
	})
	b.Run("recycled", func(b *testing.B) {
		setRegime(b, true)
		if _, err := RunParallel(cfg, 1, 1); err != nil { // warm the free list
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b)
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
			setRegime(b, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunParallel(cfg, 1, pw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
