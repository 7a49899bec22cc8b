package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/netsim"
)

// bigSweepOptions carries the bigsweep flag settings into runBigSweep.
type bigSweepOptions struct {
	stride     int
	seed       uint64
	spotCheck  int
	errBound   float64
	minSpeedup float64
	parallel   int
	jsonPath   string
}

// bigsweepDoc is the -json document of a bigsweep run.
type bigsweepDoc struct {
	Parallelism int                        `json:"parallelism"`
	GOMAXPROCS  int                        `json:"gomaxprocs"`
	Sweep       experiments.BigSweepReport `json:"bigsweep"`
	Perf        experiments.PerfStats      `json:"perf"`
}

// runBigSweepCmd parses the bigsweep subcommand's flags.
func runBigSweepCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench bigsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opts bigSweepOptions
	fs.IntVar(&opts.stride, "stride", 47,
		"length stride over [1, 65535] (larger = fewer points)")
	fs.Uint64Var(&opts.seed, "seed", 1,
		"spot-check selection seed (same seed = same spot-check set)")
	fs.IntVar(&opts.spotCheck, "spotcheck", 4096,
		"expected points per simulated spot check (negative disables)")
	fs.Float64Var(&opts.errBound, "errbound", 1e-9,
		"exit nonzero if the worst spot-check relative error exceeds this")
	fs.Float64Var(&opts.minSpeedup, "minspeedup", 0,
		"exit nonzero if analytic/simulated per-point speedup falls below this (0 = no check)")
	fs.IntVar(&opts.parallel, "parallel", runtime.GOMAXPROCS(0),
		"worker goroutines (1 = serial)")
	fs.StringVar(&opts.jsonPath, "json", "", "write the sweep report as JSON to this path")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.parallel < 1 {
		return usageErrf(fs, stderr, "-parallel must be at least 1, got %d", opts.parallel)
	}
	if opts.stride < 1 {
		return usageErrf(fs, stderr, "-stride must be at least 1, got %d", opts.stride)
	}
	if opts.errBound < 0 {
		return usageErrf(fs, stderr, "-errbound must not be negative, got %g", opts.errBound)
	}
	experiments.SetParallelism(opts.parallel)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return failf(stderr, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return failf(stderr, err)
		}
		defer pprof.StopCPUProfile()
	}
	return runBigSweep(opts, stdout, stderr)
}

// runBigSweep executes the analytic cross-product sweep and enforces
// the spot-check error bound (and optionally a minimum speedup) via the
// exit status.
func runBigSweep(opts bigSweepOptions, stdout, stderr io.Writer) int {
	axes := experiments.DefaultSweepAxes()
	axes.Lengths = nil
	for n := 1; n <= netsim.MaxFrame; n += opts.stride {
		axes.Lengths = append(axes.Lengths, n)
	}
	rep, err := experiments.BigSweep(experiments.BigSweepConfig{
		Axes:           axes,
		Seed:           opts.seed,
		SpotCheckEvery: opts.spotCheck,
		ErrBound:       opts.errBound,
		Workers:        opts.parallel,
	})
	if err != nil {
		return failf(stderr, err)
	}

	fmt.Fprintf(stdout, "bigsweep: %d points in %.2fs (%.0f points/sec)\n",
		rep.Points, rep.ElapsedSec, rep.PointsPerSec)
	fmt.Fprintf(stdout, "bigsweep: %d simulated spot checks, max relative error %g (bound %g)\n",
		rep.SpotChecks, rep.MaxRelErr, rep.ErrBound)
	fmt.Fprintf(stdout, "bigsweep: %.3f us/point analytic vs %.1f us/point simulated (%.0fx)\n",
		rep.AnalyticPointUS, rep.SimulatedPointUS, rep.Speedup)

	if opts.jsonPath != "" {
		doc := bigsweepDoc{
			Parallelism: opts.parallel,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Sweep:       rep,
			Perf:        experiments.Perf(),
		}
		if err := writeJSON(stderr, opts.jsonPath, doc); err != nil {
			return failf(stderr, err)
		}
	}

	if !rep.BoundOK {
		fmt.Fprintf(stderr, "geniebench: FAIL: max relative error %g exceeds bound %g (worst: %s)\n",
			rep.MaxRelErr, rep.ErrBound, rep.WorstPoint)
		return 1
	}
	if opts.minSpeedup > 0 && rep.Speedup < opts.minSpeedup {
		fmt.Fprintf(stderr, "geniebench: FAIL: speedup %.0fx below required %.0fx\n",
			rep.Speedup, opts.minSpeedup)
		return 1
	}
	return 0
}
