package experiments

import (
	"testing"

	"repro/internal/core"
)

// smallStorageConfig keeps the sweep cheap: 4 semantics spanning the
// taxonomy's corners, 3 sizes bracketing the crossover, one cache
// pressure axis.
func smallStorageConfig() StorageConfig {
	return StorageConfig{
		Semantics:       []core.Semantics{core.Copy, core.EmulatedCopy, core.Share, core.EmulatedMove},
		Sizes:           []int{512, 8192, 61440},
		CachePages:      []int{8, 64},
		DirtyThresholds: []int{0, 4},
		Workers:         []int{1, 4},
	}
}

// The sweep's digest must be bit-identical at 1 and 4 point workers —
// the memo serves the second run, and a fresh memo must agree too.
func TestRunStorageDeterministic(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(smallStorageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Fatalf("storage sweep not deterministic: %+v", rep.Runs)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Digest != rep.Runs[1].Digest {
		t.Fatalf("runs diverged: %+v", rep.Runs)
	}
	if rep.Runs[0].Points == 0 {
		t.Fatal("empty sweep")
	}
	perf := rep.Perf
	if perf.StorageMemoMisses != uint64(rep.Runs[0].Points) {
		t.Fatalf("memo misses %d, want one per point (%d)",
			perf.StorageMemoMisses, rep.Runs[0].Points)
	}
	if perf.StorageMemoHits+perf.StorageMemoWaits == 0 {
		t.Fatal("second run never touched the memo")
	}

	// A cold memo and fresh rigs must reproduce the digest bit for bit
	// — recycling and memoization are observably invisible.
	ResetPerf()
	cold, err := RunStorage(StorageConfig{
		Semantics:       smallStorageConfig().Semantics,
		Sizes:           smallStorageConfig().Sizes,
		CachePages:      smallStorageConfig().CachePages,
		DirtyThresholds: smallStorageConfig().DirtyThresholds,
		Workers:         []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Runs[0].Digest != rep.Runs[0].Digest {
		t.Fatalf("cold rebuild digest %s != original %s",
			cold.Runs[0].Digest, rep.Runs[0].Digest)
	}
}

// With the memo off, the 4-worker run re-simulates every point instead
// of replaying the 1-worker run from the memo, and the default sweep
// must still reproduce its committed digest at both worker counts.
func TestRunStorageMemoOff(t *testing.T) {
	withPerfRegime(t, false, true, 0, func() {
		rep, err := RunStorage(StorageConfig{Workers: []int{1, 4}})
		if err != nil {
			t.Fatal(err)
		}
		points := uint64(rep.Runs[0].Points)
		if rep.Perf.StorageMemoHits != 0 || rep.Perf.StorageMemoMisses != 2*points {
			t.Errorf("memo hits %d misses %d, want 0 and %d (every point simulated twice)",
				rep.Perf.StorageMemoHits, rep.Perf.StorageMemoMisses, 2*points)
		}
		for _, r := range rep.Runs {
			if r.Digest != "4234ccce87e5a8f3" {
				t.Errorf("workers=%d digest %s, want the committed 4234ccce87e5a8f3", r.Workers, r.Digest)
			}
		}
	})
}

// The report locates a finite copy-vs-move crossover on the read path
// for every cache configuration, strictly inside the swept sizes.
func TestRunStorageCrossover(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(StorageConfig{
		Semantics:  []core.Semantics{core.Copy, core.EmulatedMove},
		Sizes:      []int{512, 4096, 16384, 61440},
		CachePages: []int{64},
		Workers:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Crossovers) == 0 {
		t.Fatal("no crossovers reported")
	}
	for _, x := range rep.Crossovers {
		if x.Bytes == 0 {
			t.Fatalf("no finite crossover for cp=%d dt=%d", x.CachePages, x.DirtyThreshold)
		}
		if x.Bytes <= 512 || x.Bytes > 61440 {
			t.Fatalf("crossover %d outside swept interior", x.Bytes)
		}
	}
}

// Cache pressure shows up in the sweep: the small cache's hit ratio on
// the copy path is below the big cache's, and evictions appear.
func TestRunStorageCachePressure(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(StorageConfig{
		Semantics:  []core.Semantics{core.Copy},
		Sizes:      []int{16384},
		CachePages: []int{8, 64},
		Workers:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var small, big *StoragePoint
	for i := range rep.Points {
		switch rep.Points[i].CachePages {
		case 8:
			small = &rep.Points[i]
		case 64:
			big = &rep.Points[i]
		}
	}
	if small == nil || big == nil {
		t.Fatal("missing sweep points")
	}
	if small.HitRatio >= big.HitRatio {
		t.Fatalf("small cache hit ratio %v not below big cache %v",
			small.HitRatio, big.HitRatio)
	}
	if small.Evictions == 0 {
		t.Fatal("pressured cache never evicted")
	}
	if big.Evictions != 0 {
		t.Fatalf("unpressured cache evicted %d times", big.Evictions)
	}
}

// The dirty-threshold axis turns writes into bursts.
func TestRunStorageWritebackBursts(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(StorageConfig{
		Semantics:       []core.Semantics{core.Copy},
		Sizes:           []int{16384},
		CachePages:      []int{64},
		DirtyThresholds: []int{0, 4},
		Workers:         []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lazy, eager *StoragePoint
	for i := range rep.Points {
		switch rep.Points[i].DirtyThreshold {
		case 0:
			lazy = &rep.Points[i]
		case 4:
			eager = &rep.Points[i]
		}
	}
	if lazy == nil || eager == nil {
		t.Fatal("missing sweep points")
	}
	if lazy.Bursts != 0 {
		t.Fatalf("threshold-0 point burst %d times", lazy.Bursts)
	}
	if eager.Bursts == 0 {
		t.Fatal("threshold-4 point never burst")
	}
	if eager.Writebacks == 0 {
		t.Fatal("threshold-4 point never wrote back")
	}
}
