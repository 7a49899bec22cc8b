package genie

import "repro/internal/experiments"

// The storage surface: sweep the buffering-semantics taxonomy over the
// simulated storage data path — a seek/transfer-cost block device under
// a page cache with read-ahead and threshold-triggered writeback —
// instead of the network path. Each grid point fixes (semantics, I/O
// size, cache capacity, dirty threshold) and reports per-op CPU and
// latency next to the cache's hit ratio and writeback-burst accounting;
// the report also locates the copy-vs-move break-even on the read path
// for each cache configuration. Every sweep is a deterministic
// simulation, bit-identical at any worker count; the returned stats
// carry the per-run digests proving it.

// StorageStats is a full storage sweep outcome: per-point measurements
// (Points), the located copy-vs-move break-even on the read path for
// each cache configuration (Crossovers, Bytes 0 = no crossing inside
// the swept sizes), and the per-worker-count runs that verified
// determinism.
type StorageStats = experiments.StorageReport

// storageOptions collects the functional options for RunStorage.
type storageOptions struct {
	cfg experiments.StorageConfig
}

// StorageOption configures one storage sweep.
type StorageOption func(*storageOptions)

// WithStorageSemantics restricts the sweep to the given semantics
// (default: all eight).
func WithStorageSemantics(sems ...Semantics) StorageOption {
	return func(o *storageOptions) { o.cfg.Semantics = sems }
}

// WithStorageSizes sets the swept per-op I/O lengths in bytes. Default
// {512, 4096, 16384, 61440}.
func WithStorageSizes(sizes ...int) StorageOption {
	return func(o *storageOptions) { o.cfg.Sizes = sizes }
}

// WithCachePages sets the swept page-cache capacities in pages.
// Default {8, 64}.
func WithCachePages(pages ...int) StorageOption {
	return func(o *storageOptions) { o.cfg.CachePages = pages }
}

// WithDirtyThresholds sets the swept dirty-page writeback thresholds
// (0 = flush only on sync). Default {0, 4}.
func WithDirtyThresholds(thresholds ...int) StorageOption {
	return func(o *storageOptions) { o.cfg.DirtyThresholds = thresholds }
}

// WithStorageWorkers sets the point-fan-out worker counts the sweep is
// digest-compared across. Default {1, 4}; the first is the reported
// baseline, a repeated count runs once, and a count below 1 is an error.
func WithStorageWorkers(workers ...int) StorageOption {
	return func(o *storageOptions) { o.cfg.Workers = workers }
}

// RunStorage executes one storage sweep at every configured worker
// count, digest-compares the runs, and returns the baseline's points
// with the crossover locations and the determinism verdict.
func RunStorage(opts ...StorageOption) (*StorageStats, error) {
	var o storageOptions
	for _, opt := range opts {
		opt(&o)
	}
	return experiments.RunStorage(o.cfg)
}
