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
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/trace"
)

// generator is one named figure or table producer.
type generator struct {
	name    string
	section string // "figures", "tables", or "ablations"
	fig     func() (experiments.Figure, error)
	tab     func() (experiments.Table, error)
}

// result is one generator's outcome, as written to the -json report.
type result struct {
	Name    string              `json:"name"`
	Section string              `json:"section"`
	WallMS  float64             `json:"wall_ms"`
	Figure  *experiments.Figure `json:"figure,omitempty"`
	Table   *experiments.Table  `json:"table,omitempty"`
}

// report is the top-level -json document, written so future PRs can
// track both the reproduced numbers and the harness's own wall-clock.
type report struct {
	Parallelism int                   `json:"parallelism"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	Cache       bool                  `json:"cache"`
	Recycle     bool                  `json:"recycle"`
	DataPlane   string                `json:"data_plane"`
	TotalWallMS float64               `json:"total_wall_ms"`
	Perf        experiments.PerfStats `json:"perf"`
	Results     []result              `json:"results"`
}

// paperFigures lists the paper's Figures 3-7 in order: sweep prints
// them and writes them as CSV, and plot draws them.
var paperFigures = []struct {
	id  int
	gen func(experiments.Setup) (experiments.Figure, error)
}{
	{3, experiments.Figure3},
	{4, experiments.Figure4},
	{5, experiments.Figure5},
	{6, experiments.Figure6},
	{7, experiments.Figure7},
}

// generators lists every figure, table, and ablation in print order.
func generators() []generator {
	fig := func(name string, f func(experiments.Setup) (experiments.Figure, error)) generator {
		return generator{name: name, section: "figures",
			fig: func() (experiments.Figure, error) { return f(experiments.Setup{}) }}
	}
	tabS := func(name, section string, f func(experiments.Setup) (experiments.Table, error)) generator {
		return generator{name: name, section: section,
			tab: func() (experiments.Table, error) { return f(experiments.Setup{}) }}
	}
	tab := func(name, section string, f func() (experiments.Table, error)) generator {
		return generator{name: name, section: section, tab: f}
	}
	var gens []generator
	for _, pf := range paperFigures {
		gens = append(gens, fig(fmt.Sprintf("Figure %d", pf.id), pf.gen))
	}
	return append(gens,
		fig("Outboard (predicted)", experiments.FigureOutboard),
		tabS("Figure 3 (throughput)", "figures", experiments.Figure3Throughput),
		tab("Table 1", "tables", func() (experiments.Table, error) { return experiments.Table1(), nil }),
		tab("Table 5", "tables", func() (experiments.Table, error) { return experiments.Table5(), nil }),
		tabS("Table 6", "tables", experiments.Table6),
		tabS("Table 7", "tables", experiments.Table7),
		tab("Table 8", "tables", experiments.Table8),
		tab("OC-12 prediction", "tables", experiments.TableOC12),
		tab("Throughput (OC-3)", "tables", func() (experiments.Table, error) {
			return experiments.TableThroughput(cost.CreditNetOC3)
		}),
		tab("Throughput (OC-12)", "tables", func() (experiments.Table, error) {
			return experiments.TableThroughput(cost.CreditNetOC12)
		}),
		tab("Ablation: wiring", "ablations", experiments.AblationWiring),
		tab("Ablation: alignment", "ablations", experiments.AblationAlignment),
		tab("Ablation: thresholds", "ablations", experiments.AblationThresholds),
		tab("Ablation: reverse copyout", "ablations", experiments.AblationReverseCopyout),
		tab("Ablation: output protection", "ablations", experiments.AblationOutputProtection),
		tab("Ablation: checksum", "ablations", experiments.AblationChecksum),
		tab("Ablation: pageout", "ablations", experiments.AblationPageout),
	)
}

// run executes one generator, timing its wall clock.
func (g generator) run() (result, error) {
	r := result{Name: g.name, Section: g.section}
	start := time.Now()
	switch {
	case g.fig != nil:
		f, err := g.fig()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", g.name, err)
		}
		r.Figure = &f
	default:
		t, err := g.tab()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", g.name, err)
		}
		r.Table = &t
	}
	r.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return r, nil
}

func (r result) render(w io.Writer) {
	if r.Figure != nil {
		r.Figure.Render(w)
	} else if r.Table != nil {
		r.Table.Render(w)
	}
	fmt.Fprintln(w)
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
	norecycle := fs.Bool("norecycle", false,
		"disable testbed recycling across measurement points")
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

	experiments.SetParallelism(*parallel)
	defer experiments.SetMemo(experiments.SetMemo(!*nomemo))
	defer par.SetRecycling(par.SetRecycling(!*norecycle))
	experiments.SetDataPlane(plane)

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
		if err := writeCSVs(*csvDir); err != nil {
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
	for _, g := range generators() {
		// -json tracks every generator; printing honors the section flags.
		if *jsonPath == "" && !wantSection(g.section) {
			continue
		}
		r, err := g.run()
		if err != nil {
			return failf(stderr, err)
		}
		results = append(results, r)
		if wantSection(g.section) {
			r.render(stdout)
		}
	}

	perf := experiments.Perf()
	if *jsonPath != "" {
		rep := report{
			Parallelism: *parallel,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Cache:       !*nomemo,
			Recycle:     !*norecycle,
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
	// byte-comparable across memo/recycle/parallelism settings. Hits and
	// misses are exact at any -parallel; the testbed split depends on
	// which point worker frees a testbed first unless the sweep is
	// serial, so the label says when it cannot be quoted as a figure.
	split := " (varies with worker timing; exact at -parallel 1)"
	if *parallel == 1 || *norecycle {
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

// writeCSVs regenerates the five figures and writes them as CSV files.
func writeCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, pf := range paperFigures {
		fig, err := pf.gen(experiments.Setup{})
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("figure%d.csv", pf.id)))
		if err != nil {
			return err
		}
		fig.CSV(f)
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
