package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// compare judges a change (runs B) against its parent (runs A), one row
// per (workload, end-to-end metric):
//
//   - failed: B's runs of the workload failed more ops than A's, so no
//     gain of B counts;
//   - model metrics (model_*) repeat exactly for a seed, so when every
//     pair ran the same seed they are compared exactly: regressed if B
//     is worse in any pair, improved if B is better in some pair and
//     worse in none, unchanged if every pair is equal;
//   - otherwise improved: B wins at least 9 of every 10 pairs (ties count
//     for neither) and the medians differ by more than A's interquartile
//     range, in B's favour;
//   - unresolved: A's or B's spread, as a share of its median, exceeds
//     the metric's bound, unless every B run beats every A run;
//   - regressed: B's median is worse than A's by more than the bound;
//   - unchanged: otherwise.
//
// Runs are alternating pairs: the i-th run of A (by file name) and the
// i-th run of B ran one after the other. compare reads the bounds from
// BENCHMARK.json in the working directory, the repository root, and
// exits 1 when any row failed or regressed.

// metricBound is one end-to-end metric of BENCHMARK.json.
type metricBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkDef is the part of BENCHMARK.json compare reads.
type benchmarkDef struct {
	EndToEnd []metricBound `json:"end_to_end"`
}

type verdictRow struct {
	workload, metric string
	a, b             []float64
	verdict          string
	wins, pairs      int
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare RUNS_A/ RUNS_B/")
		return 2
	}
	def, err := loadBenchmarkDef("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	b, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	rows := compareRuns(def, a, b)
	printRows(stdout, rows)
	for _, r := range rows {
		if r.verdict == "regressed" || r.verdict == "failed" {
			return 1
		}
	}
	return 0
}

func loadBenchmarkDef(path string) (*benchmarkDef, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(buf, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// loadRuns reads every run record (*.json, written by --out) in dir,
// grouped by workload, each group in file-name order.
func loadRuns(dir string) (map[string][]*runRecord, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no run records (*.json)", dir)
	}
	slices.Sort(files)
	runs := map[string][]*runRecord{}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(buf, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rec.Trace {
			continue // per-layer metrics carry no bound
		}
		runs[rec.Workload] = append(runs[rec.Workload], &rec)
	}
	return runs, nil
}

func compareRuns(def *benchmarkDef, a, b map[string][]*runRecord) []verdictRow {
	var rows []verdictRow
	for _, wl := range sortedKeys(a) {
		moreFailures := failedOps(b[wl]) > failedOps(a[wl])
		exact := samePairedSeeds(a[wl], b[wl])
		for _, m := range def.EndToEnd {
			row := verdictRow{workload: wl, metric: m.Name}
			for _, r := range a[wl] {
				row.a = append(row.a, r.Metrics[m.Name])
			}
			for _, r := range b[wl] {
				row.b = append(row.b, r.Metrics[m.Name])
			}
			lower := m.Better == "lower"
			if exact && strings.HasPrefix(m.Name, "model_") {
				row.verdict, row.wins, row.pairs = exactVerdict(row.a, row.b, lower)
			} else {
				row.verdict, row.wins, row.pairs = verdict(row.a, row.b, lower, m.Bound)
			}
			if moreFailures {
				row.verdict = "failed"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func failedOps(runs []*runRecord) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}

// samePairedSeeds reports whether a and b pair up and every pair ran
// the same seed.
func samePairedSeeds(a, b []*runRecord) bool {
	if len(a) == 0 || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			return false
		}
	}
	return true
}

// exactVerdict compares a metric that repeats exactly for a seed, pair
// by pair.
func exactVerdict(a, b []float64, lowerBetter bool) (v string, wins, pairs int) {
	v, pairs = "unchanged", min(len(a), len(b))
	for i := range pairs {
		worse := b[i] > a[i]
		if !lowerBetter {
			worse = b[i] < a[i]
		}
		switch {
		case worse:
			v = "regressed"
		case b[i] != a[i]:
			wins++
			if v == "unchanged" {
				v = "improved"
			}
		}
	}
	return v, wins, pairs
}

// verdict applies the rule above to parent runs a and change runs b of
// one metric.
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, wins, pairs int) {
	if len(a) == 0 || len(b) == 0 {
		return "missing", 0, 0
	}
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	medA, medB := median(a), median(b)
	iqrA, iqrB := iqr(a), iqr(b)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (medB - medA) / math.Abs(medA) // positive: B is worse
	if !lowerBetter {
		worse = -worse
	}
	if medA == medB {
		worse = 0
	}
	switch {
	case wins*10 >= pairs*9 && better(medB, medA) && math.Abs(medB-medA) > iqrA:
		return "improved", wins, pairs
	case iqrA > bound*math.Abs(medA) || iqrB > bound*math.Abs(medB):
		if allBetter {
			return "improved", wins, pairs
		}
		return "unresolved", wins, pairs
	case worse > bound:
		return "regressed", wins, pairs
	}
	return "unchanged", wins, pairs
}

// quartiles returns the first and third quartiles of at least two
// values the way Python's statistics.quantiles(v, n=4) does (the
// "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// iqr is the interquartile range of v, 0 for fewer than two values.
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return q3 - q1
}

func printRows(w io.Writer, rows []verdictRow) {
	fmt.Fprintf(w, "%-22s %-22s %14s %12s %14s %12s %7s  %s\n",
		"workload", "metric", "median A", "IQR A", "median B", "IQR B", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-22s %14.6g %12.4g %14.6g %12.4g %3d/%-3d  %s\n",
			r.workload, r.metric, median(r.a), iqr(r.a), median(r.b), iqr(r.b),
			r.wins, r.pairs, r.verdict)
	}
}
