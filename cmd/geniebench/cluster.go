package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// runClusterCmd parses the cluster subcommand's flags.
func runClusterCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench cluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts clusterOptions
	fs.IntVar(&opts.hosts, "hosts", 64, "incast host count (1 receiver + N-1 senders)")
	fs.IntVar(&opts.rounds, "rounds", 4, "lockstep send/drain rounds per workload")
	fs.IntVar(&opts.msgBytes, "bytes", 8192, "incast message payload size in bytes")
	fs.StringVar(&opts.workers, "workers", "",
		"comma-separated worker counts to compare (default 1,4,GOMAXPROCS)")
	fs.Float64Var(&opts.minSpeedup, "minspeedup", 0,
		"exit nonzero if the best ring self-speedup falls below this (0 = no gate)")
	fs.StringVar(&opts.jsonPath, "json", "", "write both reports as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.hosts < 2 {
		return usageErrf(fs, stderr, "-hosts must be at least 2, got %d", opts.hosts)
	}
	return runCluster(opts, stdout, stderr)
}

// clusterOptions carries the cluster flag settings into runCluster.
type clusterOptions struct {
	hosts      int
	rounds     int
	msgBytes   int
	workers    string
	minSpeedup float64
	jsonPath   string
}

// clusterDoc is the -json document of a cluster run (BENCH_pr7.json in
// CI): both workloads' per-worker-count runs, the determinism verdict,
// and enough environment to interpret the speedup honestly.
type clusterDoc struct {
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NumCPU     int                        `json:"num_cpu"`
	Incast     *experiments.ClusterReport `json:"incast"`
	Ring       *experiments.ClusterReport `json:"ring"`
}

// parseWorkerList parses "1,4,8"; empty means the default set
// {1, 4, GOMAXPROCS}.
func parseWorkerList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var ws []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runCluster executes the sharded-engine benchmark pair: the 64-host
// incast determinism check (digest byte-compared across worker counts)
// and the ring halo-exchange self-speedup measurement. Exit status is
// nonzero if any worker count's digest diverges from serial, or if
// -minspeedup is set and the best ring self-speedup falls short.
func runCluster(opts clusterOptions, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "geniebench:", err)
		return 1
	}
	workers, err := parseWorkerList(opts.workers)
	if err != nil {
		return fail(fmt.Errorf("-workers: %w", err))
	}

	incast, err := experiments.RunIncast(experiments.ClusterBenchConfig{
		Hosts:    opts.hosts,
		Rounds:   opts.rounds,
		MsgBytes: opts.msgBytes,
		Workers:  workers,
	})
	if err != nil {
		return fail(err)
	}
	printClusterReport(stdout, incast)

	ring, err := experiments.RunRing(experiments.ClusterBenchConfig{
		Rounds:  opts.rounds * 4, // more rounds: this is the timing vehicle
		Workers: workers,
	})
	if err != nil {
		return fail(err)
	}
	printClusterReport(stdout, ring)

	if opts.jsonPath != "" {
		doc := clusterDoc{
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Incast:     incast,
			Ring:       ring,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(opts.jsonPath, append(buf, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "geniebench: wrote %s\n", opts.jsonPath)
	}

	code := 0
	for _, rep := range []*experiments.ClusterReport{incast, ring} {
		if !rep.Deterministic {
			fmt.Fprintf(stderr, "geniebench: FAIL: %s digests diverge across worker counts\n", rep.Mode)
			code = 1
		}
	}
	maxWorkers := 0
	for _, r := range ring.Runs {
		maxWorkers = max(maxWorkers, r.Workers)
	}
	if speedupGate(stderr, "ring self-speedup", ring.BestSpeedup, opts.minSpeedup, maxWorkers) {
		code = 1
	}
	return code
}

// printClusterReport renders one workload's runs: the per-worker-count
// digest lines are byte-stable; the closing verdict line carries the
// wall-clock self-speedup and environment.
func printClusterReport(stdout io.Writer, rep *experiments.ClusterReport) {
	fmt.Fprintf(stdout, "cluster %s: %d hosts, %d rounds, %d-byte messages\n",
		rep.Mode, rep.Hosts, rep.Rounds, rep.MsgBytes)
	for _, r := range rep.Runs {
		fmt.Fprintf(stdout, "cluster %s: workers=%d digest=%s deliveries=%d final=%.3fus\n",
			rep.Mode, r.Workers, r.Digest, r.Deliveries, r.FinalTimeUS)
	}
	verdict := "bit-identical across worker counts"
	if !rep.Deterministic {
		verdict = "DIGESTS DIVERGE"
	}
	fmt.Fprintf(stdout, "cluster %s: %s; best self-speedup %.2fx at %d workers (GOMAXPROCS=%d, NumCPU=%d)\n",
		rep.Mode, verdict, rep.BestSpeedup, rep.BestWorkers, rep.GOMAXPROCS, rep.NumCPU)
}
