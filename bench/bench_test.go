package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// tinyScenario builds a named workload at smoke-test size.
func tinyScenario(t *testing.T, name string, workers int) scenario {
	t.Helper()
	switch name {
	case "paper-pairwise":
		return newPairwise(pairwiseSpec{points: 48, pool: 2}, workers)
	case "fileserver-closedloop":
		return newFileserver(fileserverSpec{
			cfg: workload.Config{
				Scenario:  workload.FileServer,
				Semantics: []core.Semantics{core.Copy, core.EmulatedShare},
				Depths:    []int{1, 4},
				Loads:     []float64{1},
				Clients:   2,
				Ops:       4,
			},
			pool: 2,
		}, workers)
	case "storage-read", "storage-write":
		spec := storageReadDefault
		if name == "storage-write" {
			spec = storageWriteDefault
		}
		spec.ops, spec.pool = 32, 2
		return newStorage(spec)
	}
	t.Fatalf("unknown workload %q", name)
	return nil
}

func tinyRun(t *testing.T, name string, seed uint64, workers int, traced bool) *runRecord {
	t.Helper()
	dir := t.TempDir()
	rec, err := run(tinyScenario(t, name, workers), runConfig{
		workload: name, seed: seed, trace: traced, workers: workers,
		spans: filepath.Join(dir, "spans.json"), cpuprof: filepath.Join(dir, "cpu.pprof"),
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if rec.Failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed: %v", name, seed, rec.Failed, rec.Attempted, rec.Errors)
	}
	return rec
}

// tinyDigests pins the smoke-size digests for seed 1.
var tinyDigests = map[string]string{
	"paper-pairwise":        "34651f0470385bc8",
	"fileserver-closedloop": "f06dc9b3063db73a",
	"storage-read":          "b59add0606762cdc",
	"storage-write":         "79ecc1a49d70d974",
}

func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			rec := tinyRun(t, name, 1, 2, false)
			if rec.Digest != tinyDigests[name] {
				t.Errorf("digest %s, pinned %s", rec.Digest, tinyDigests[name])
			}
			for _, d := range endToEnd {
				if v, ok := rec.Metrics[d.name]; !ok || v <= 0 {
					t.Errorf("metric %s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

// A traced run must observe, not perturb: its digest equals the
// untraced one, and its span file passes cmd/tracecheck.
func TestTracedRunIsPureObserver(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	tracecheck := filepath.Join(dir, "tracecheck")
	if out, err := exec.Command("go", "build", "-o", tracecheck, "repro/cmd/tracecheck").CombinedOutput(); err != nil {
		t.Fatalf("build tracecheck: %v\n%s", err, out)
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			spans := filepath.Join(dir, name+".json")
			// Half a second of sessions gives the CPU profile samples.
			rec, err := run(tinyScenario(t, name, 2), runConfig{
				workload: name, seed: 1, seconds: 0.5, trace: true, workers: 2,
				spans: spans, cpuprof: filepath.Join(dir, name+".pprof"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 {
				t.Fatalf("%d ops failed: %v", rec.Failed, rec.Errors)
			}
			if want := tinyRun(t, name, 1, 2, false).Digest; rec.Digest != want {
				t.Errorf("traced digest %s, untraced %s", rec.Digest, want)
			}
			for _, m := range ownLayerMetrics[name] {
				if rec.Metrics[m] <= 0 {
					t.Errorf("%s = %v, want > 0", m, rec.Metrics[m])
				}
			}
			var out bytes.Buffer
			if err := report(&out, rec); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.Metrics) != len(perLayer) {
				t.Errorf("result line: correct %v, %d metrics, want true and %d", res.Correct, len(res.Metrics), len(perLayer))
			}
			if out, err := exec.Command(tracecheck, spans).CombinedOutput(); err != nil {
				t.Errorf("tracecheck: %v\n%s", err, out)
			}
		})
	}
}

// ownLayerMetrics are per-layer metrics each workload's own layers must
// move.
var ownLayerMetrics = map[string][]string{
	"paper-pairwise":        {"experiments.measure_us_mean", "experiments.reset_perf_us", "experiments.memo_hit_ratio", "cpu_share.mem"},
	"fileserver-closedloop": {"workload.run_parallel_s_mean", "workload.points", "workload.clusters_built", "cpu_share.sim"},
	"storage-read":          {"core.file_read_us_mean", "core.sendfile_us_mean", "sim.events_per_op", "pagecache.hit_ratio", "netsim.tx_frames_per_op"},
	"storage-write":         {"core.file_write_us_mean", "pagecache.writebacks_per_op", "blockdev.seeks_per_op", "pagecache.bursts_per_op"},
}

// The fan-out workloads give the same digest at one worker and at
// several.
func TestDigestIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"paper-pairwise", "fileserver-closedloop"} {
		one := tinyRun(t, name, 1, 1, false).Digest
		many := tinyRun(t, name, 1, max(4, runtime.GOMAXPROCS(0)), false).Digest
		if one != many {
			t.Errorf("%s: digest %s at 1 worker, %s at several", name, one, many)
		}
	}
}

// The same seed gives the same inputs and digest; another seed gives
// another digest.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloads {
		a, b := tinyScenario(t, name, 1), tinyScenario(t, name, 1)
		if err := a.setup(7); err != nil {
			t.Fatal(err)
		}
		if err := b.setup(7); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inputs(a), inputs(b)) {
			t.Errorf("%s: seed 7 set up different inputs twice", name)
		}
		if tinyRun(t, name, 1, 1, false).Digest == tinyRun(t, name, 2, 1, false).Digest {
			t.Errorf("%s: seeds 1 and 2 give the same digest", name)
		}
	}
}

// inputs returns the generated inputs of a set-up scenario.
func inputs(d scenario) any {
	switch w := d.(type) {
	case *pairwise:
		return w.pool
	case *fileserver:
		return w.seeds
	case *storage:
		return []any{w.pool, w.image}
	}
	return nil
}

// The full-size workloads reproduce their pinned digests for seeds 1
// and 2.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at benchmark size")
	}
	for _, name := range workloads {
		for _, seed := range []uint64{1, 2} {
			w, err := newScenario(name, runtime.GOMAXPROCS(0))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := run(w, runConfig{workload: name, seed: seed, workers: runtime.GOMAXPROCS(0)})
			if err != nil {
				t.Fatal(err)
			}
			if want := pinnedDigests[name][seed]; rec.Digest != want || rec.Failed != 0 {
				t.Errorf("%s seed %d: digest %s (%d failed), pinned %s", name, seed, rec.Digest, rec.Failed, want)
			}
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the
// benchmark reports, with valid names and within the limits on their number.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &def); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, bench %v", names, workloads)
	}
	var e2e, layer []metricDef
	for _, m := range def.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range def.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, bench %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the bench's")
	}
	if len(e2e) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(e2e), len(layer))
	}
	seen := map[string]bool{}
	for _, m := range append(e2e, layer...) {
		if !valid.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q invalid or repeated", m.name)
		}
		seen[m.name] = true
	}
	for _, sm := range spanMetrics {
		if !seen[sm.metric] {
			t.Errorf("span metric %q is not declared", sm.metric)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name string
		a, b []float64
		want string
	}{
		{"identical", base, base, "unchanged"},
		{"improved", base, scaled(1.2), "improved"},
		{"within bound", base, scaled(0.95), "unchanged"},
		{"worse", base, scaled(0.8), "regressed"},
		{"unresolved", base, noisy, "unresolved"},
	}
	for _, c := range cases {
		// higher is better, bound 0.1
		if got, _, _ := verdict(c.a, c.b, false, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got, _, _ := verdict(base, scaled(1.2), true, 0.1); got != "regressed" {
		t.Errorf("lower-is-better 20%% rise: verdict %s, want regressed", got)
	}

	// Whole run sets: a workload whose change runs failed more ops fails,
	// and model metrics compare exactly when the pairs ran the same seeds.
	def := &benchmarkDef{EndToEnd: []metricBound{
		{Name: "ops_per_s", Better: "higher", Bound: 0.25},
		{Name: "model_latency_us_p99", Better: "lower", Bound: 0.15},
	}}
	runs := func(seed uint64, failed int, opsPerS, p99 float64) map[string][]*runRecord {
		var rs []*runRecord
		for i := range 5 {
			rs = append(rs, &runRecord{Workload: "w", Seed: seed, Failed: failed, Metrics: metricSet{
				"ops_per_s": opsPerS * (1 + float64(i)/100), "model_latency_us_p99": p99,
			}})
		}
		return map[string][]*runRecord{"w": rs}
	}
	verdicts := func(a, b map[string][]*runRecord) []string {
		var out []string
		for _, r := range compareRuns(def, a, b) {
			out = append(out, r.verdict)
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b map[string][]*runRecord
		want []string
	}{
		{"identical", runs(1, 0, 100, 50), runs(1, 0, 100, 50), []string{"unchanged", "unchanged"}},
		{"model 1% worse, same seed", runs(1, 0, 100, 50), runs(1, 0, 100, 50.5), []string{"unchanged", "regressed"}},
		{"model 1% better, same seed", runs(1, 0, 100, 50), runs(1, 0, 100, 49.5), []string{"unchanged", "improved"}},
		{"model 1% worse, other seed", runs(1, 0, 100, 50), runs(2, 0, 100, 50.5), []string{"unchanged", "unchanged"}},
		{"faster but failing", runs(1, 0, 100, 50), runs(1, 3, 150, 40), []string{"failed", "failed"}},
		{"failing as before", runs(1, 3, 100, 50), runs(1, 3, 100, 50), []string{"unchanged", "unchanged"}},
	} {
		if got := verdicts(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: verdicts %v, want %v", c.name, got, c.want)
		}
	}
}

// quartiles matches Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestCPUGroup(t *testing.T) {
	for file, want := range map[string]string{
		"repro@v0.0.0/internal/sim/engine.go":        "sim",
		"/src/repro/internal/pagecache/pagecache.go": "pagecache",
		"runtime/mgc.go":                      "runtime",
		"/usr/local/go/src/runtime/malloc.go": "runtime",
		"internal/runtime/maps/map.go":        "runtime",
		"repro@v0.0.0/internal/topo/topo.go":  "other",
		"repro/bench/harness.go":              "other",
		"sort/slice.go":                       "other",
	} {
		if got := cpuGroup(file); got != want {
			t.Errorf("cpuGroup(%q) = %q, want %q", file, got, want)
		}
	}
}

func TestMidQuantile(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		p    float64
		want float64
	}{
		{[]float64{1, 2, 2, 2, 3}, 0.5, 2},
		{[]float64{1, 1, 1, 2}, 0.5, 1.25},        // mids: 1 at 0.375, 2 at 0.875
		{[]float64{1, 1 + 1e-9, 1, 2}, 0.5, 1.25}, // a nanosecond apart is a tie
		{[]float64{3, 1, 2}, 0.99, 3},
		{[]float64{3, 1, 2}, 0.01, 1},
		{nil, 0.5, 0},
	} {
		if got := midQuantile(c.v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("midQuantile(%v, %v) = %v, want %v", c.v, c.p, got, c.want)
		}
	}
}
