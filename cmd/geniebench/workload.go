package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/workload"
)

// parseSemanticsList resolves a comma-separated semantics list against
// the canonical names of core.AllSemantics(). Hyphens may stand in for
// the spaces in multi-word names, so shells need no quoting:
// "copy,emulated-copy" == "copy,emulated copy".
func parseSemanticsList(s string) ([]core.Semantics, error) {
	if s == "" {
		return nil, nil
	}
	canon := func(name string) string {
		return strings.ReplaceAll(strings.TrimSpace(strings.ToLower(name)), "-", " ")
	}
	all := core.AllSemantics()
	var out []core.Semantics
	for _, f := range strings.Split(s, ",") {
		want := canon(f)
		found := false
		for _, sem := range all {
			if canon(sem.String()) == want {
				out = append(out, sem)
				found = true
				break
			}
		}
		if !found {
			names := make([]string, len(all))
			for i, sem := range all {
				names[i] = strings.ReplaceAll(sem.String(), " ", "-")
			}
			return nil, fmt.Errorf("unknown semantics %q (want one of %s)",
				strings.TrimSpace(f), strings.Join(names, ", "))
		}
	}
	return out, nil
}

// parseIntList parses "1,2,4".
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloatList parses "0.5,1,2". NaN and infinities are refused.
func parseFloatList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		x, err := strconv.ParseFloat(f, 64)
		if err != nil || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("bad multiplier %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}

// runWorkloadCmd drives the closed-loop backpressure study: sweep
// semantics × depth × load at every -workers count, digest-compare the
// runs, and locate each semantics' rule-3 transition depth. Exit status
// is nonzero on digest divergence, or when -requiretransition names a
// semantics whose transition is not finite.
func runWorkloadCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench workload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scenario := fs.String("scenario", workload.FileServer,
		"traffic shape: fileserver, stream, or fanout")
	semList := fs.String("semantics", "",
		"comma-separated buffering semantics to sweep, e.g. copy,emulated-copy,share (default all eight)")
	depthList := fs.String("depths", "",
		"comma-separated queue depths in messages (default 1,2,4,8,16)")
	loadList := fs.String("loads", "",
		"comma-separated offered-load multipliers (default 0.5,1,2)")
	clients := fs.Int("clients", 0, "closed-loop clients / fan-out width (0 = default 4)")
	ops := fs.Int("ops", 0, "operations per client (0 = default 12)")
	msgBytes := fs.Int("msgbytes", 0, "response/frame payload bytes (0 = default 2048)")
	think := fs.Float64("think", 0, "base think time in simulated µs at load 1 (0 = default 400)")
	pipeline := fs.Int("pipeline", 0, "outstanding operations per client (0 = default 4)")
	streamRate := fs.Float64("streamrate", 0, "stream target bitrate in MB/s at load 1 (0 = default 12)")
	rto := fs.Float64("rto", 0, "reliable-channel retransmission timeout in µs (0 = default 12000)")
	seed := fs.Uint64("seed", 0, "think-time jitter seed (0 = default 1)")
	faultsFlag := fs.String("faults", "",
		"arm seeded fault injection, e.g. seed=7,drop=0.02,corrupt=0.01")
	workersList := fs.String("workers", "",
		"comma-separated shard-advance worker counts to digest-compare (default 1,4)")
	requireTransition := fs.String("requiretransition", "",
		"exit nonzero unless this semantics' rule-3 transition depth is finite (CI gate)")
	jsonPath := fs.String("json", "", "write the full report as JSON to this path")
	parallel := fs.Int("parallel", 0,
		"goroutines for independent (semantics, depth, load) points — a different axis from -workers, which parallelizes inside one point's cluster (0 = GOMAXPROCS, 1 = serial)")
	noRecycle := fs.Bool("norecycle", false, "disable cluster recycling (every point builds a fresh cluster)")
	minSpeedup := fs.Float64("minspeedup", 0,
		"also time the serial/cold regime and exit nonzero unless optimized/cold speedup meets this floor (CI gate)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel < 0 {
		return usageErrf(fs, stderr, "-parallel must be at least 0, got %d", *parallel)
	}
	for _, k := range []struct {
		flag string
		v    float64
	}{
		{"clients", float64(*clients)}, {"ops", float64(*ops)}, {"msgbytes", float64(*msgBytes)},
		{"think", *think}, {"pipeline", float64(*pipeline)}, {"streamrate", *streamRate}, {"rto", *rto},
		{"minspeedup", *minSpeedup},
	} {
		if k.v < 0 || math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			return usageErrf(fs, stderr, "-%s must be finite and at least 0 (0 = default), got %v", k.flag, k.v)
		}
	}
	defer par.SetRecycling(par.SetRecycling(!*noRecycle))

	cfg := experiments.WorkloadConfig{}
	cfg.PointWorkers = *parallel
	cfg.CompareSerialCold = *minSpeedup > 0
	cfg.Scenario = *scenario
	cfg.Clients = *clients
	cfg.Ops = *ops
	cfg.MsgBytes = *msgBytes
	cfg.ThinkUS = *think
	cfg.Pipeline = *pipeline
	cfg.StreamMBps = *streamRate
	cfg.RTOUS = *rto
	cfg.Seed = *seed

	var err error
	if cfg.Semantics, err = parseSemanticsList(*semList); err != nil {
		return usageErrf(fs, stderr, "-semantics: %v", err)
	}
	if cfg.Depths, err = parseIntList(*depthList); err != nil {
		return usageErrf(fs, stderr, "-depths: %v", err)
	}
	if cfg.Loads, err = parseFloatList(*loadList); err != nil {
		return usageErrf(fs, stderr, "-loads: %v", err)
	}
	if cfg.Workers, err = parseWorkers(*workersList); err != nil {
		return usageErrf(fs, stderr, "-workers: %v", err)
	}
	if *faultsFlag != "" {
		spec, err := faults.ParseSpec(*faultsFlag)
		if err != nil {
			return usageErrf(fs, stderr, "-faults: %v", err)
		}
		if err := spec.Validate(); err != nil {
			return usageErrf(fs, stderr, "-faults: %v", err)
		}
		if !spec.Enabled() {
			return usageErrf(fs, stderr,
				"-faults: spec %q injects nothing (set a seed and at least one rate)", *faultsFlag)
		}
		cfg.Faults = spec
	}
	var gate core.Semantics
	if *requireTransition != "" {
		sems, err := parseSemanticsList(*requireTransition)
		if err != nil || len(sems) != 1 {
			return usageErrf(fs, stderr, "-requiretransition: want exactly one semantics name")
		}
		gate = sems[0]
	}

	rep, err := experiments.RunWorkload(cfg)
	if err != nil {
		// Config mistakes (unknown scenario, bad depth) are usage errors.
		return usageErrf(fs, stderr, "%v", err)
	}
	printWorkloadReport(stdout, rep)

	if *jsonPath != "" {
		if err := writeJSON(stderr, *jsonPath, rep); err != nil {
			return failf(stderr, err)
		}
	}

	fmt.Fprintf(stderr, "geniebench: workload perf: clusters %d recycled / %d built\n",
		rep.Perf.ClustersRecycled, rep.Perf.ClustersBuilt)

	code := 0
	if divergenceGate(stderr, "workload "+rep.Scenario, rep.Verification) {
		code = 1
	}
	if speedupGate(stderr, "workload speedup over serial cold", rep.Speedup, *minSpeedup, rep.PointWorkers) {
		code = 1
	}
	if *requireTransition != "" {
		s := rep.Result.Scheme(gate.String())
		if s == nil || s.TransitionDepth < 0 {
			got := -1
			if s != nil {
				got = s.TransitionDepth
			}
			fmt.Fprintf(stderr,
				"geniebench: FAIL: %q rule-3 transition depth = %d, want finite\n",
				gate.String(), got)
			code = 1
		}
	}
	return code
}

// printWorkloadReport renders the sweep: per-semantics operating points
// in canonical order, each scheme's transition verdict, then the
// per-worker-count digest lines proving (or refuting) determinism.
func printWorkloadReport(stdout io.Writer, rep *experiments.WorkloadReport) {
	res := rep.Result
	fmt.Fprintf(stdout, "workload %s: %d clients, %d ops/client, %d-byte messages\n",
		res.Scenario, res.Clients, res.Ops, res.MsgBytes)
	for _, s := range res.Schemes {
		for _, p := range s.Points {
			mode := "steady"
			if p.Bimodal {
				mode = "BIMODAL"
			}
			fmt.Fprintf(stdout,
				"workload %s: %-18s depth=%-3d load=%-4g %7.2f/%.2f MB/s  p50=%.0fus p95=%.0fus p99=%.0fus  ops=%d fail=%d shed=%d retx=%d drop=%d  kern=%dpg queue=%d  %s\n",
				res.Scenario, s.Semantics, p.Depth, p.Load,
				p.AchievedMBps, p.OfferedMBps,
				p.Latency.P50, p.Latency.P95, p.Latency.P99,
				p.Completed, p.Failed, p.Shed, p.Retransmits, p.Drops,
				p.KernelHWM, p.QueueHWM, mode)
		}
		if s.TransitionDepth >= 0 {
			fmt.Fprintf(stdout, "workload %s: %-18s rule-3 transition at depth %d\n",
				res.Scenario, s.Semantics, s.TransitionDepth)
		} else {
			fmt.Fprintf(stdout, "workload %s: %-18s no transition: every depth stays bimodal (queueing only delays blocking)\n",
				res.Scenario, s.Semantics)
		}
	}
	printVerification(stdout, "workload "+res.Scenario, rep.Verification)
	fmt.Fprintf(stdout, "workload %s: point-workers=%d\n", res.Scenario, rep.PointWorkers)
	if rep.SerialColdSec > 0 {
		fmt.Fprintf(stdout,
			"workload %s: serial cold %.3fs, optimized %.3fs, speedup %.2fx\n",
			res.Scenario, rep.SerialColdSec, rep.OptimizedSec, rep.Speedup)
	}
}
