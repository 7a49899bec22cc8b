// Command geniebench regenerates the paper's evaluation and runs the
// repo's benchmark modes, one subcommand per mode:
//
//	geniebench [sweep]      # figures, tables, ablations (the default)
//	geniebench cluster      # sharded multi-host benchmarks: incast determinism + ring self-speedup
//	geniebench chaos        # fault-injection recovery matrix
//	geniebench workload     # closed-loop backpressure study: semantics x depth x load
//	geniebench storage      # storage-path study: semantics x I/O size over block device + page cache
//	geniebench trace        # per-event breakdown of one traced transfer
//	geniebench plot         # the paper's Figures 3-7 as ASCII plots
//
// Every subcommand takes its own flags (see `geniebench <cmd> -h`).
// sweep, cluster, workload and storage take -json <path>
// (machine-readable report). sweep and workload take -parallel N, the
// goroutines their independent points fan across.
// cluster, workload and storage take -workers, the list of worker
// counts whose digests must match, and share one rule for it: the
// default is 1,4, a repeated count runs once, the first run is the
// baseline, and a count below 1 or a non-number is a usage error. Each
// prints one digest line per run (workers, digest, records, elapsed)
// and one verdict line, and exits 1 when the digests diverge.
//
// # sweep
//
// Regenerates every table and figure of the paper's evaluation next to
// the published values. -figures/-tables/-ablations restrict the
// sections; -csv writes figure CSVs; -trace captures one traced
// exemplar per figure as Chrome trace_event JSON. Measurement points
// fan out across -parallel workers (any count produces byte-identical
// output), identical points are memoized, and testbeds are recycled;
// -nomemo and -norecycle restore the cold path. -dataplane selects
// symbolic or materialized payload bytes — output is identical either
// way.
//
// # cluster
//
// Exercises the sharded parallel engine: a -hosts incast runs at every
// -workers count and the full delivery digest must be byte-identical at
// all of them; then a ring halo exchange measures the engine's
// self-speedup over its first run. Exit status is nonzero on any digest
// divergence, or when -minspeedup is set and the best ring self-speedup
// falls short.
//
// Both -minspeedup gates (cluster and workload) are skipped, not failed,
// on a host with fewer CPUs than the parallelism they credit: the
// largest -workers count for the ring, the -parallel point workers for
// the workload.
//
// # chaos
//
// Runs reliable transfers across every buffering scheme and semantics
// family under the seeded fault script of -spec and prints the recovery
// report: injected drops, duplicates, reorderings, corruptions,
// allocation failures, and pool denials must all be recovered and every
// testbed must conserve its resources. Exit status is nonzero if any
// point violated recovery or conservation.
//
// # workload
//
// Drives the closed-loop backpressure study (see internal/workload):
// pipelined clients against a server (-scenario fileserver), a
// fixed-bitrate stream through a bounded queue (stream), or a
// scatter-gather fan-out (fanout), sweeping buffering semantics x queue
// depth x offered load and locating each semantics' rule-3 transition —
// the smallest depth whose heaviest-load point is no longer bimodal.
// The sweep runs at every -workers count and the digests must match
// bit for bit; exit status is nonzero on divergence, or when
// -requiretransition names a semantics whose transition is not finite.
// Independent grid points fan across -parallel goroutines (default
// GOMAXPROCS) while -workers parallelizes inside one point's cluster
// engine. Every -workers count simulates the whole grid again. Each point
// reuses a Reset cluster from the recycler (-norecycle builds every
// cluster fresh; output is byte-identical either way). -minspeedup
// additionally times the serial cold regime and gates on the optimized
// speedup over it.
//
// # storage
//
// Sweeps buffering semantics x I/O size x page-cache capacity x dirty
// threshold over the simulated storage data path — a seek/transfer-cost
// block device under a page cache with read-ahead and threshold
// writeback — and reports per-op CPU and latency next to hit ratios and
// writeback-burst accounting, plus the copy-vs-move break-even on the
// read path per cache configuration. The sweep runs at every -workers
// count (point fan-out) and the digests must match bit for bit; exit
// status is nonzero on divergence, or when -requirecrossover is set and
// any configuration fails to locate a finite crossover.
//
// # trace
//
// Traces one datagram transfer through the structured event subsystem,
// the cycle-counter instrumentation of the paper's Section 8 as a tool.
// It prints every emitted event (data passing charges with their stage
// and latency, VM faults and region transitions, adapter and link
// activity), then the critical-path spans, whose sum equals the
// end-to-end latency. -sem names one semantics (spaces or hyphens),
// -bytes the datagram length, -scheme the input buffering (early,
// pooled, outboard), -devoff and -appoff the device and application
// buffer offsets, and -chrome also writes the trace as Chrome
// trace_event JSON:
//
//	geniebench trace -sem "emulated copy" -bytes 61440 -scheme early
//	geniebench trace -sem copy -bytes 2048 -scheme pooled -appoff 1000
//	geniebench trace -sem move -bytes 16384 -scheme pooled -chrome out.json
//
// # plot
//
// Renders the paper's latency and utilization figures as ASCII plots
// for a quick visual check of the curve shapes: the wide
// copy-vs-everything gap of Figure 3, move's zeroing penalty in
// Figure 5, and the three-band split of Figure 7. -fig N draws only
// Figure N (3 to 7); the default 0 draws all five.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands lists the dispatch table in help order.
var subcommands = []struct {
	name string
	desc string
	cmd  func(args []string, stdout, stderr io.Writer) int
}{
	{"sweep", "regenerate the paper's figures, tables, and ablations (default)", runSweepCmd},
	{"cluster", "sharded multi-host benchmarks: incast determinism + ring self-speedup", runClusterCmd},
	{"chaos", "fault-injection recovery matrix", runChaosCmd},
	{"workload", "closed-loop backpressure study: semantics x depth x load", runWorkloadCmd},
	{"storage", "storage-path study: semantics x I/O size over block device + page cache", runStorageCmd},
	{"trace", "per-event breakdown of one traced transfer", runTraceCmd},
	{"plot", "the paper's Figures 3-7 as ASCII plots", runPlotCmd},
}

// run is the testable entry point: the first argument names the
// subcommand unless it is a flag, in which case sweep runs. Flag or
// usage errors return 2, runtime failures 1, success 0.
func run(args []string, stdout, stderr io.Writer) int {
	name, rest := "sweep", args
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, rest = args[0], args[1:]
	}
	for _, sc := range subcommands {
		if sc.name == name {
			return sc.cmd(rest, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "geniebench: unknown subcommand %q\n", name)
	printUsage(stderr)
	return 2
}

func printUsage(w io.Writer) {
	fmt.Fprintf(w, "Usage: geniebench [subcommand] [flags]\n\nSubcommands:\n")
	for _, sc := range subcommands {
		fmt.Fprintf(w, "  %-9s %s\n", sc.name, sc.desc)
	}
	fmt.Fprintf(w, "\nRun `geniebench <subcommand> -h` for that subcommand's flags.\n")
}

// usageErrf reports a flag-validation error with the subcommand's
// usage text; callers return its value (2) as the exit status.
func usageErrf(fs *flag.FlagSet, stderr io.Writer, format string, a ...any) int {
	fmt.Fprintf(stderr, "geniebench: "+format+"\n", a...)
	fs.Usage()
	return 2
}

func failf(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "geniebench:", err)
	return 1
}

// speedupGate applies a -minspeedup floor (0 = no gate) to a measured
// speedup that credits w-way parallelism and reports whether the run
// fails it. A process with fewer usable CPUs than w (NumCPU, or a lower
// GOMAXPROCS) cannot show that speedup, so there the gate is skipped
// instead of decided by the runner's core count.
func speedupGate(stderr io.Writer, what string, got, floor float64, w int) (fail bool) {
	if floor <= 0 {
		return false
	}
	cpus, limit := runtime.NumCPU(), "NumCPU"
	if p := runtime.GOMAXPROCS(0); p < cpus {
		cpus, limit = p, "GOMAXPROCS"
	}
	if cpus < w {
		fmt.Fprintf(stderr, "geniebench: %s gate skipped: %s=%d < %d\n", what, limit, cpus, w)
		return false
	}
	if got < floor {
		fmt.Fprintf(stderr, "geniebench: FAIL: %s %.2fx, want >= %.2fx\n", what, got, floor)
		return true
	}
	return false
}

// writeJSON writes v as indented JSON to path and notes it on stderr.
func writeJSON(stderr io.Writer, path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "geniebench: wrote %s\n", path)
	return nil
}

// parseWorkers parses a -workers list: a usage error, quoting the
// entry, unless every entry is a count of at least 1.
func parseWorkers(s string) ([]int, error) {
	ws, err := parseIntList(s)
	for i, w := range ws {
		if w < 1 {
			return nil, fmt.Errorf("worker count %q < 1", strings.TrimSpace(strings.Split(s, ",")[i]))
		}
	}
	return ws, err
}

// printVerification renders a worker-count sweep: one digest line per
// run, then the verdict with the host it ran on.
func printVerification(stdout io.Writer, label string, v experiments.Verification) {
	for _, r := range v.Runs {
		fmt.Fprintf(stdout, "%s: workers=%d digest=%s records=%d elapsed=%.3fs\n",
			label, r.Workers, r.Digest, r.Records, r.ElapsedSec)
	}
	verdict := "bit-identical across worker counts"
	if !v.Deterministic {
		verdict = "DIGESTS DIVERGE"
	}
	fmt.Fprintf(stdout, "%s: %s (GOMAXPROCS=%d, NumCPU=%d)\n", label, verdict, v.GOMAXPROCS, v.NumCPU)
}

// divergenceGate reports whether v's runs diverged, which fails the run.
func divergenceGate(stderr io.Writer, label string, v experiments.Verification) (fail bool) {
	if !v.Deterministic {
		fmt.Fprintf(stderr, "geniebench: FAIL: %s digests diverge across worker counts\n", label)
	}
	return !v.Deterministic
}
