package main

// Metric names and units. BENCHMARK.json lists the same names with the
// same units (TestMetricsMatchBenchmarkJSON); a run prints every
// end-to-end metric untraced and every per-layer metric traced. Host
// metrics measure the simulator's own wall clock and memory; model
// metrics measure the simulated I/O path and repeat exactly for a seed.

type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"rss_mb", "MB"},
	{"model_latency_us_p50", "us"},
	{"model_latency_us_p99", "us"},
	{"model_mb_per_s", "MB/s"},
}

// perLayer lists the per-layer metrics. A metric of a layer the workload
// never calls reads 0. Counts are totals over the run; *_per_op ratios
// divide by the workload's ops; *_us_mean and *_s_mean are host-time
// means per call the benchmark makes, taken from the traced sessions'
// spans.
var perLayer = []metricDef{
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles_per_kop", "cycles/kop"},
	{"go.gc_pause_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.model_samples", "count"},
	{"bench.peak_rss_mb", "MB"},

	{"cpu_share.sim", "ratio"},
	{"cpu_share.mem", "ratio"},
	{"cpu_share.vm", "ratio"},
	{"cpu_share.netsim", "ratio"},
	{"cpu_share.core", "ratio"},
	{"cpu_share.pagecache", "ratio"},
	{"cpu_share.blockdev", "ratio"},
	{"cpu_share.workload", "ratio"},
	{"cpu_share.experiments", "ratio"},
	{"cpu_share.digest", "ratio"},
	{"cpu_share.runtime", "ratio"},
	{"cpu_share.other", "ratio"},

	{"experiments.measure_calls", "count"},
	{"experiments.measure_us_mean", "us/call"},
	{"experiments.memo_hit_ratio", "ratio"},
	{"experiments.memo_waits", "count"},
	{"experiments.testbed_recycle_ratio", "ratio"},
	{"experiments.reset_perf_us", "us/call"},
	{"experiments.paper_err_pct", "%"},

	{"workload.run_parallel_s_mean", "s/call"},
	{"workload.points", "count"},
	{"workload.cluster_recycle_ratio", "ratio"},
	{"workload.clusters_built", "count"},
	{"workload.memo_hit_ratio", "ratio"},
	{"workload.retransmits_per_kop", "1/kop"},
	{"workload.drops_per_kop", "1/kop"},
	{"workload.failed_per_kop", "1/kop"},
	{"workload.bimodal_point_frac", "ratio"},
	{"workload.kernel_hwm_pages_max", "pages"},
	{"workload.transition_depth_copy", "msgs"},

	{"core.file_read_us_mean", "us/call"},
	{"core.file_write_us_mean", "us/call"},
	{"core.sendfile_us_mean", "us/call"},
	{"core.process_input_us_mean", "us/call"},
	{"core.verify_us_mean", "us/call"},
	{"core.testbed_reset_us_mean", "us/call"},
	{"core.storage_reacquire_us_mean", "us/call"},
	{"core.check_conservation_us_mean", "us/call"},
	{"core.page_flips_per_op", "pages/op"},
	{"core.donations_per_op", "pages/op"},
	{"core.direct_blocks_per_op", "blocks/op"},

	{"sim.run_us_mean", "us/call"},
	{"sim.events_per_op", "events/op"},
	{"sim.events_per_host_s", "events/s"},

	{"pagecache.hit_ratio", "ratio"},
	{"pagecache.readaheads_per_op", "blocks/op"},
	{"pagecache.consumed_per_op", "pages/op"},
	{"pagecache.evictions_per_op", "pages/op"},
	{"pagecache.writebacks_per_op", "pages/op"},
	{"pagecache.bursts_per_op", "1/op"},
	{"pagecache.dirty_hwm", "pages"},
	{"pagecache.sync_us_mean", "us/call"},

	{"blockdev.seeks_per_op", "1/op"},
	{"blockdev.blocks_read_per_op", "blocks/op"},
	{"blockdev.blocks_written_per_op", "blocks/op"},
	{"blockdev.busy_us_per_op", "us/op"},
	{"blockdev.load_us_mean", "us/call"},

	{"mem.allocs_per_op", "frames/op"},
	{"mem.frames_hwm", "frames"},
	{"mem.failed_allocs", "count"},
	{"vm.faults_per_op", "1/op"},
	{"vm.tcow_copies_per_op", "1/op"},
	{"vm.zero_fills_per_op", "1/op"},
	{"netsim.tx_frames_per_op", "frames/op"},
	{"netsim.dropped", "count"},
	{"netsim.retried", "count"},
}

// spanMetrics maps a span name to the per-layer metric that
// reports its mean host duration, and the divisor from nanoseconds to
// the metric's unit.
var spanMetrics = map[string]struct {
	metric string
	perNS  float64
}{
	"experiments.Measure":            {"experiments.measure_us_mean", 1e3},
	"experiments.ResetPerf":          {"experiments.reset_perf_us", 1e3},
	"workload.RunParallel":           {"workload.run_parallel_s_mean", 1e9},
	"core.Storage.FileRead":          {"core.file_read_us_mean", 1e3},
	"core.Storage.FileWrite":         {"core.file_write_us_mean", 1e3},
	"core.Storage.Sendfile":          {"core.sendfile_us_mean", 1e3},
	"core.Process.Input":             {"core.process_input_us_mean", 1e3},
	"core.Process.Read":              {"core.verify_us_mean", 1e3},
	"core.Testbed.Reset":             {"core.testbed_reset_us_mean", 1e3},
	"core.Storage.Reacquire":         {"core.storage_reacquire_us_mean", 1e3},
	"core.Storage.CheckConservation": {"core.check_conservation_us_mean", 1e3},
	"core.Storage.Sync":              {"pagecache.sync_us_mean", 1e3},
	"blockdev.Device.Load":           {"blockdev.load_us_mean", 1e3},
	"core.Testbed.Run":               {"sim.run_us_mean", 1e3},
}

// metricSet holds one run's metric values by name.
type metricSet map[string]float64

// ratio returns num/den, or 0 when den is 0 (a layer the run never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
