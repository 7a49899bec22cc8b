package genie_test

import (
	"testing"

	"repro/genie"
)

// The storage facade runs the disk-path study end to end: a trimmed
// sweep must come back digest-identical across the compared worker
// counts, expose typed per-point measurements, and locate a finite
// copy-vs-move crossover on the read path.
func TestStorageFacade(t *testing.T) {
	stats, err := genie.RunStorage(
		genie.WithStorageSemantics(genie.Copy, genie.EmulatedMove),
		genie.WithStorageSizes(512, 8192, 61440),
		genie.WithCachePages(16),
		genie.WithDirtyThresholds(4),
		genie.WithStorageWorkers(1, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Deterministic {
		t.Fatalf("sweep not deterministic across workers: %+v", stats.Runs)
	}
	if len(stats.Runs) != 2 || stats.Runs[0].Workers != 1 || stats.Runs[1].Workers != 3 {
		t.Fatalf("runs = %+v, want worker counts 1 and 3", stats.Runs)
	}
	if len(stats.Points) != 6 {
		t.Fatalf("points = %d, want 2 semantics × 3 sizes", len(stats.Points))
	}
	for _, p := range stats.Points {
		if p.ReadCPU <= 0 || p.ReadLatency <= 0 {
			t.Errorf("point %+v missing read measurements", p)
		}
	}
	if len(stats.Crossovers) != 1 || stats.Crossovers[0].Bytes == 0 {
		t.Fatalf("no finite crossover located: %+v", stats.Crossovers)
	}
}
