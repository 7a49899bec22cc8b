package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// result is one experiment's outcome, as written to the -json report.
type result struct {
	Name    string  `json:"name"`
	Section string  `json:"section"`
	WallMS  float64 `json:"wall_ms"`
	experiments.Output
}

// report is the top-level -json document, written so future PRs can
// track both the reproduced numbers and the harness's own wall-clock.
type report struct {
	Parallelism int                   `json:"parallelism"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	Cache       bool                  `json:"cache"`
	DataPlane   string                `json:"data_plane"`
	TotalWallMS float64               `json:"total_wall_ms"`
	Perf        experiments.PerfStats `json:"perf"`
	Results     []result              `json:"results"`
}

// runExperiment runs e from base on r, timing its wall clock.
func runExperiment(e experiments.Experiment, base experiments.Setup, r experiments.Runner) (result, error) {
	start := time.Now()
	out, err := e.Run(base, r)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", e.Name, err)
	}
	return result{Name: e.Name, Section: e.Section, Output: out,
		WallMS: float64(time.Since(start).Microseconds()) / 1000}, nil
}

// runSweepCmd is the default subcommand: regenerate the paper's
// figures, tables, and ablations.
func runSweepCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figures := fs.Bool("figures", false, "regenerate the figures only")
	tables := fs.Bool("tables", false, "regenerate the tables only")
	ablations := fs.Bool("ablations", false, "run the ablations only")
	csvDir := fs.String("csv", "", "also write each figure as CSV into this directory")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines per sweep (1 = serial)")
	jsonPath := fs.String("json", "",
		"write every figure/table plus wall-clock per generator as JSON to this path")
	nomemo := fs.Bool("nomemo", false,
		"disable the cross-generator measurement memo (output is identical, only slower)")
	dataplane := fs.String("dataplane", "symbolic",
		"payload representation inside the simulator: symbolic or bytes (output is identical)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := fs.String("memprofile", "", "write a heap profile to this path")
	tracePath := fs.String("trace", "",
		"capture one traced exemplar transfer per figure as Chrome trace_event JSON at this path")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the error and usage
	}
	if *parallel < 1 {
		return usageErrf(fs, stderr, "-parallel must be at least 1, got %d", *parallel)
	}
	plane, err := mem.PlaneByName(*dataplane)
	if err != nil {
		return usageErrf(fs, stderr, "-dataplane: %v", err)
	}
	all := !*figures && !*tables && !*ablations && *tracePath == ""

	base, r := experiments.Setup{Plane: plane}, experiments.Runner{Workers: *parallel}
	defer experiments.SetMemo(experiments.SetMemo(!*nomemo))

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

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, base, r); err != nil {
			return failf(stderr, err)
		}
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, stderr); err != nil {
			return failf(stderr, err)
		}
	}

	wantSection := func(section string) bool {
		switch section {
		case "figures":
			return all || *figures
		case "tables":
			return all || *tables
		default:
			return all || *ablations
		}
	}

	start := time.Now()
	var results []result
	for _, e := range experiments.Experiments {
		// -json tracks every experiment; printing honors the section flags.
		if *jsonPath == "" && !wantSection(e.Section) {
			continue
		}
		res, err := runExperiment(e, base, r)
		if err != nil {
			return failf(stderr, err)
		}
		results = append(results, res)
		if wantSection(e.Section) {
			res.Render(stdout)
			fmt.Fprintln(stdout)
		}
	}

	perf := experiments.Perf()
	if *jsonPath != "" {
		rep := report{
			Parallelism: *parallel,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Cache:       !*nomemo,
			DataPlane:   plane.Name(),
			TotalWallMS: float64(time.Since(start).Microseconds()) / 1000,
			Perf:        perf,
			Results:     results,
		}
		if err := writeJSON(stderr, *jsonPath, rep); err != nil {
			return failf(stderr, err)
		}
	}

	// The performance summary goes to stderr so stdout stays
	// byte-comparable across memo and parallelism settings. Hits and
	// misses are exact at any -parallel; the testbed split depends on
	// which point worker frees a testbed first unless the sweep is
	// serial, so the label says when it cannot be quoted as a figure.
	split := " (varies with worker timing; exact at -parallel 1)"
	if *parallel == 1 {
		split = ""
	}
	fmt.Fprintf(stderr,
		"geniebench: cache %d hits / %d misses; testbeds %d recycled / %d built%s\n",
		perf.CacheHits, perf.CacheMisses, perf.TestbedsRecycled, perf.TestbedsBuilt, split)
	if perf.ResetFailures > 0 {
		fmt.Fprintf(stderr, "geniebench: WARNING: %d testbed resets failed (state leak?)\n",
			perf.ResetFailures)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return failf(stderr, err)
		}
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			return failf(stderr, err)
		}
		if err := f.Close(); err != nil {
			return failf(stderr, err)
		}
	}
	return 0
}

// writeTrace re-runs one representative transfer per figure with the
// structured tracer attached and writes all of them into a single Chrome
// trace_event JSON document — one process group per exemplar, so the
// viewer shows each figure's transfer as its own track pair. The runs
// are serial: the bundled trace sinks are not synchronized.
func writeTrace(path string, stderr io.Writer) error {
	exemplars := []struct {
		name  string
		setup experiments.Setup
		sem   core.Semantics
		bytes int
	}{
		{"Figure 3: emulated copy 60KB, early demux",
			experiments.Setup{Scheme: netsim.EarlyDemux}, core.EmulatedCopy, 61440},
		{"Figure 4: share 60KB, early demux",
			experiments.Setup{Scheme: netsim.EarlyDemux}, core.Share, 61440},
		{"Figure 5: emulated copy 2KB, early demux",
			experiments.Setup{Scheme: netsim.EarlyDemux}, core.EmulatedCopy, 2048},
		{"Figure 6: emulated copy 60KB, pooled",
			experiments.Setup{Scheme: netsim.Pooled}, core.EmulatedCopy, 61440},
		{"Figure 7: emulated copy 60KB, pooled, misaligned",
			experiments.Setup{Scheme: netsim.Pooled, DevOff: 1000, AppOffset: 1000},
			core.EmulatedCopy, 61440},
		{"Outboard: emulated copy 60KB",
			experiments.Setup{Scheme: netsim.OutboardBuffering}, core.EmulatedCopy, 61440},
	}
	exp := trace.NewChromeExporter()
	for i, e := range exemplars {
		exp.SetProcess(i+1, e.name)
		s := e.setup
		s.Tracer = trace.New(exp)
		if _, err := experiments.Measure(s, e.sem, e.bytes); err != nil {
			return fmt.Errorf("trace exemplar %q: %w", e.name, err)
		}
	}
	if err := writeChrome(path, exp); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "geniebench: wrote %s (%d traced exemplars; load in chrome://tracing or Perfetto)\n",
		path, len(exemplars))
	return nil
}

// writeCSVs regenerates the paper's Figures 3-7 from base on r and
// writes them as CSV files.
func writeCSVs(dir string, base experiments.Setup, r experiments.Runner) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, e := range experiments.Experiments {
		if e.Fig == 0 {
			continue
		}
		out, err := e.Run(base, r)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("figure%d.csv", e.Fig)))
		if err != nil {
			return err
		}
		out.Figure.CSV(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
