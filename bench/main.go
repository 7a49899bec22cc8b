// Command bench is the repository's benchmark: four seeded workloads
// that drive the simulator's layers through their public functions and
// report host metrics (the simulator's own wall clock and memory) and
// model metrics (the simulated I/O path) by name, with units.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--out run.json]
//	bash bench/run.sh compare RUNS_A/ RUNS_B/
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics and writes its spans (--spans) and CPU profile
// (--cpuprofile). Any failed op makes the run exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// workloads lists the workload names in BENCHMARK.json order; a name's
// index plus one is its pid in span files.
var workloads = []string{"paper-pairwise", "fileserver-closedloop", "storage-read", "storage-write"}

func workloadPID(name string) int { return slices.Index(workloads, name) + 1 }

// newScenario builds the named workload at its benchmark size.
func newScenario(name string, workers int) (scenario, error) {
	switch name {
	case "paper-pairwise":
		return newPairwise(pairwiseDefault, workers), nil
	case "fileserver-closedloop":
		return newFileserver(fileserverDefault, workers), nil
	case "storage-read":
		return newStorage(storageReadDefault), nil
	case "storage-write":
		return newStorage(storageWriteDefault), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloads))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics, spans and CPU profile")
	out := fs.String("out", "", "also write the full run record to this JSON file")
	spans := fs.String("spans", "", "traced run: span file (default .bench_build/spans-WORKLOAD.json)")
	cpuprof := fs.String("cpuprofile", "", "traced run: CPU profile (default .bench_build/cpu-WORKLOAD.pprof)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "bench: --seconds must not be negative, got %v\n", *seconds)
		return 2
	}
	workers := runtime.GOMAXPROCS(0)
	w, err := newScenario(*name, workers)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: workers, spans: *spans, cpuprof: *cpuprof,
	}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans-"+*name+".json")
	}
	if cfg.cpuprof == "" {
		cfg.cpuprof = filepath.Join(".bench_build", "cpu-"+*name+".pprof")
	}
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(cfg.cpuprof), 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}

	rec, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	checkPin(rec)
	if *out != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := report(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rec.Failed > 0 {
		for _, e := range rec.Errors {
			fmt.Fprintln(stderr, "bench: failure:", e)
		}
		return 1
	}
	return 0
}

// checkPin compares the run's digest with the pinned digest for its
// workload and seed, when there is one; a mismatch fails every op the
// digest covers.
func checkPin(rec *runRecord) {
	want, ok := pinnedDigests[rec.Workload][rec.Seed]
	if !ok || rec.Digest == want {
		return
	}
	rec.fail(rec.FirstPassOps, fmt.Sprintf("digest %s, pinned %s for seed %d", rec.Digest, want, rec.Seed))
}

// report prints the run for a reader, then the result line: one JSON
// object with every metric of the run's kind, by name, with its unit.
func report(w io.Writer, rec *runRecord) error {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for name := range rec.Metrics {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			return fmt.Errorf("metric %q is not declared", name)
		}
	}
	h := rec.Host
	fmt.Fprintf(w, "host: %s GOMAXPROCS=%d NumCPU=%d\n", h.GoVersion, h.GOMAXPROCS, h.NumCPU)
	fmt.Fprintf(w, "workload: %s seed=%d trace=%v sessions=%d pool=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Sessions, rec.Pool)
	pin := "not pinned"
	if want, ok := pinnedDigests[rec.Workload][rec.Seed]; ok {
		pin = "pinned " + want
	}
	fmt.Fprintf(w, "digest: %s (%s)\n", rec.Digest, pin)
	fmt.Fprintf(w, "ops: %d attempted, %d failed; model samples: %d\n", rec.Attempted, rec.Failed, rec.ModelSamples)
	fmt.Fprintf(w, "model accuracy: experiments.paper_err_pct = %.4g %% (60 KB Figures 3, 4, 6, 7 vs the paper)\n", rec.PaperErrPct)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v := rec.Metrics[d.name]
		out[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "  %-36s %.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
