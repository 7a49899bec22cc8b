package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"repro/internal/blockdev"
	"repro/internal/experiments"
)

// runStorageCmd drives the storage-path study: sweep buffering
// semantics × I/O size × cache capacity × dirty threshold over the
// simulated block device + page cache, digest-compare the sweep at
// every -workers count, and report per-point CPU/latency, hit ratios,
// writeback bursts, and the copy-vs-move crossover on the read path.
// Exit status is nonzero on digest divergence, or when -requirecrossover
// is set and any cache configuration fails to locate a finite crossover.
func runStorageCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench storage", flag.ContinueOnError)
	fs.SetOutput(stderr)
	semList := fs.String("semantics", "",
		"comma-separated buffering semantics to sweep, e.g. copy,emulated-move (default all eight)")
	sizeList := fs.String("sizes", "",
		"comma-separated per-op I/O lengths in bytes (default 512,4096,16384,61440)")
	pageList := fs.String("cachepages", "",
		"comma-separated page-cache capacities in pages (default 8,64)")
	dirtyList := fs.String("dirty", "",
		"comma-separated dirty-page writeback thresholds, 0 = flush only on sync (default 0,4)")
	readAhead := fs.Int("readahead", 0, "page-cache read-ahead depth in pages")
	seek := fs.Float64("seek", 0, "device seek time in µs (0 = default 10000)")
	fixed := fs.Float64("fixed", 0, "device fixed per-op time in µs (0 = default 300)")
	perByte := fs.Float64("perbyte", 0, "device per-byte transfer time in µs (0 = default 0.1)")
	workersList := fs.String("workers", "",
		"comma-separated point-worker counts to digest-compare (default 1,4)")
	requireCrossover := fs.Bool("requirecrossover", false,
		"exit nonzero unless every cache configuration locates a finite copy-vs-move crossover (CI gate)")
	jsonPath := fs.String("json", "", "write the full report as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	for _, k := range []struct {
		flag string
		v    float64
	}{{"seek", *seek}, {"fixed", *fixed}, {"perbyte", *perByte}} {
		if k.v < 0 || math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return usageErrf(fs, stderr, "-%s must be finite and at least 0, got %v", k.flag, k.v)
		}
	}
	cfg := experiments.StorageConfig{ReadAhead: *readAhead}
	if *seek != 0 || *fixed != 0 || *perByte != 0 {
		cfg.Disk = blockdev.Model{SeekUS: *seek, FixedUS: *fixed, PerByteUS: *perByte}
	}
	var err error
	if cfg.Semantics, err = parseSemanticsList(*semList); err != nil {
		return usageErrf(fs, stderr, "-semantics: %v", err)
	}
	if cfg.Sizes, err = parseIntList(*sizeList); err != nil {
		return usageErrf(fs, stderr, "-sizes: %v", err)
	}
	if cfg.CachePages, err = parseIntList(*pageList); err != nil {
		return usageErrf(fs, stderr, "-cachepages: %v", err)
	}
	if cfg.DirtyThresholds, err = parseIntList(*dirtyList); err != nil {
		return usageErrf(fs, stderr, "-dirty: %v", err)
	}
	if cfg.Workers, err = parseWorkers(*workersList); err != nil {
		return usageErrf(fs, stderr, "-workers: %v", err)
	}
	for _, n := range cfg.Sizes {
		if n < 1 {
			return usageErrf(fs, stderr, "-sizes: length %d < 1", n)
		}
	}
	for _, n := range cfg.CachePages {
		if n < 0 {
			return usageErrf(fs, stderr, "-cachepages: capacity %d < 0", n)
		}
	}
	for _, n := range cfg.DirtyThresholds {
		if n < 0 {
			return usageErrf(fs, stderr, "-dirty: threshold %d < 0", n)
		}
	}
	if *readAhead < 0 {
		return usageErrf(fs, stderr, "-readahead must be at least 0, got %d", *readAhead)
	}

	rep, err := experiments.RunStorage(cfg)
	if err != nil {
		return failf(stderr, err)
	}
	printStorageReport(stdout, rep)

	if *jsonPath != "" {
		if err := writeJSON(stderr, *jsonPath, rep); err != nil {
			return failf(stderr, err)
		}
	}

	fmt.Fprintf(stderr, "geniebench: storage perf: rigs %d recycled / %d built\n",
		rep.Perf.Recycled, rep.Perf.Built)

	code := 0
	if divergenceGate(stderr, "storage", rep.Verification) {
		code = 1
	}
	if *requireCrossover {
		for _, x := range rep.Crossovers {
			if x.Bytes == 0 {
				fmt.Fprintf(stderr,
					"geniebench: FAIL: no finite copy-vs-move crossover for cache=%dpg threshold=%d\n",
					x.CachePages, x.DirtyThreshold)
				code = 1
			}
		}
		if len(rep.Crossovers) == 0 {
			fmt.Fprintf(stderr,
				"geniebench: FAIL: -requirecrossover needs copy and emulated-move in -semantics\n")
			code = 1
		}
	}
	return code
}

// printStorageReport renders the sweep: per-point lines in canonical
// order, the per-configuration crossovers, then the per-worker-count
// digest lines proving (or refuting) determinism.
func printStorageReport(stdout io.Writer, rep *experiments.StorageReport) {
	for _, p := range rep.Points {
		sf := ""
		if p.SendfileUS > 0 {
			sf = fmt.Sprintf(" sendfile=%.0fus", p.SendfileUS)
		}
		fmt.Fprintf(stdout,
			"storage: %-18s size=%-6d cache=%-3dpg dirty=%-2d read %7.2fus cpu / %9.1fus lat  write %7.2fus cpu / %9.1fus lat  hit=%4.1f%% wb=%d bursts=%d evict=%d seeks=%d%s\n",
			p.Sem, p.Size, p.CachePages, p.DirtyThreshold,
			p.ReadCPU, p.ReadLatency, p.WriteCPU, p.WriteLatency,
			100*p.HitRatio, p.Writebacks, p.Bursts, p.Evictions, p.DeviceSeeks, sf)
	}
	for _, x := range rep.Crossovers {
		if x.Bytes > 0 {
			fmt.Fprintf(stdout, "storage: cache=%dpg dirty=%d copy-vs-move read crossover at %d bytes\n",
				x.CachePages, x.DirtyThreshold, x.Bytes)
		} else {
			fmt.Fprintf(stdout, "storage: cache=%dpg dirty=%d no copy-vs-move crossover inside swept sizes\n",
				x.CachePages, x.DirtyThreshold)
		}
	}
	printVerification(stdout, "storage", rep.Verification)
}
