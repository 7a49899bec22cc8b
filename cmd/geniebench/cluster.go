package main

import (
	"flag"
	"fmt"
	"io"

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
	workersList := fs.String("workers", "",
		"comma-separated worker counts to digest-compare (default 1,4)")
	fs.Float64Var(&opts.minSpeedup, "minspeedup", 0,
		"exit nonzero if the best ring self-speedup falls below this (0 = no gate)")
	fs.StringVar(&opts.jsonPath, "json", "", "write both reports as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.hosts < 2 {
		return usageErrf(fs, stderr, "-hosts must be at least 2, got %d", opts.hosts)
	}
	var err error
	if opts.workers, err = parseWorkers(*workersList); err != nil {
		return usageErrf(fs, stderr, "-workers: %v", err)
	}
	return runCluster(opts, stdout, stderr)
}

// clusterOptions carries the cluster flag settings into runCluster.
type clusterOptions struct {
	hosts      int
	rounds     int
	msgBytes   int
	workers    []int
	minSpeedup float64
	jsonPath   string
}

// clusterDoc is the -json document of a cluster run (cluster.json in
// CI): both workloads' reports, each with its per-worker-count runs,
// determinism verdict and host environment.
type clusterDoc struct {
	Incast *experiments.ClusterReport `json:"incast"`
	Ring   *experiments.ClusterReport `json:"ring"`
}

// runCluster executes the sharded-engine benchmark pair: the 64-host
// incast determinism check (digest byte-compared across worker counts)
// and the ring halo-exchange self-speedup measurement. Exit status is
// nonzero if any worker count's digest diverges from the first, or if
// -minspeedup is set and the best ring self-speedup falls short.
func runCluster(opts clusterOptions, stdout, stderr io.Writer) int {
	incast, err := experiments.RunIncast(experiments.ClusterBenchConfig{
		Hosts:    opts.hosts,
		Rounds:   opts.rounds,
		MsgBytes: opts.msgBytes,
		Workers:  opts.workers,
	})
	if err != nil {
		return failf(stderr, err)
	}
	printClusterReport(stdout, incast)

	ring, err := experiments.RunRing(experiments.ClusterBenchConfig{
		Rounds:  opts.rounds * 4, // more rounds: this is the timing vehicle
		Workers: opts.workers,
	})
	if err != nil {
		return failf(stderr, err)
	}
	printClusterReport(stdout, ring)

	if opts.jsonPath != "" {
		if err := writeJSON(stderr, opts.jsonPath, clusterDoc{Incast: incast, Ring: ring}); err != nil {
			return failf(stderr, err)
		}
	}

	code := 0
	for _, rep := range []*experiments.ClusterReport{incast, ring} {
		if divergenceGate(stderr, "cluster "+rep.Mode, rep.Verification) {
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

// printClusterReport renders one workload: its shape, the verified
// runs, then the simulated end time and the wall-clock self-speedup.
func printClusterReport(stdout io.Writer, rep *experiments.ClusterReport) {
	label := "cluster " + rep.Mode
	fmt.Fprintf(stdout, "%s: %d hosts, %d rounds, %d-byte messages\n",
		label, rep.Hosts, rep.Rounds, rep.MsgBytes)
	printVerification(stdout, label, rep.Verification)
	fmt.Fprintf(stdout, "%s: final=%.3fus; best self-speedup %.2fx at %d workers\n",
		label, rep.FinalTimeUS, rep.BestSpeedup, rep.BestWorkers)
}
