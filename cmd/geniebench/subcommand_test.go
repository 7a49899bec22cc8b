package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The dispatcher: explicit subcommands route, a leading flag selects
// sweep, and unknown names exit 2 with the subcommand list.
func TestCLIDispatch(t *testing.T) {
	t.Run("unknown subcommand", func(t *testing.T) {
		code, _, stderr := runCLI(t, "frobnicate")
		if code != 2 {
			t.Fatalf("exit code %d, want 2", code)
		}
		for _, want := range []string{"unknown subcommand", "Usage", "workload", "storage"} {
			if !strings.Contains(stderr, want) {
				t.Errorf("stderr missing %q:\n%s", want, stderr)
			}
		}
	})
	t.Run("chaos subcommand spec flag", func(t *testing.T) {
		code, stdout, stderr := runCLI(t, "chaos", "-spec", "seed=1,drop=0.25")
		if code != 0 {
			t.Fatalf("exit code %d\nstderr:\n%s", code, stderr)
		}
		if !strings.Contains(stdout, "recovered") {
			t.Errorf("chaos report missing:\n%s", stdout)
		}
	})
	t.Run("chaos requires a spec", func(t *testing.T) {
		code, _, stderr := runCLI(t, "chaos")
		if code != 2 || !strings.Contains(stderr, "-spec: a fault spec is required") {
			t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
		}
	})
	t.Run("chaos rejects empty spec", func(t *testing.T) {
		code, _, stderr := runCLI(t, "chaos", "-spec", "seed=0")
		if code != 2 || !strings.Contains(stderr, "injects nothing") {
			t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
		}
	})
	t.Run("cluster subcommand canonical flags", func(t *testing.T) {
		code, _, stderr := runCLI(t, "cluster", "-hosts", "1")
		if code != 2 || !strings.Contains(stderr, "-hosts must be at least 2") {
			t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
		}
	})
	t.Run("sweep is the default", func(t *testing.T) {
		// A bad sweep-only flag value proves the default route parses
		// sweep's FlagSet.
		code, _, stderr := runCLI(t, "-dataplane", "quantum")
		if code != 2 || !strings.Contains(stderr, "-dataplane") {
			t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
		}
	})
}

// The workload subcommand end to end: a trimmed sweep exits 0, prints
// per-point lines plus the transition verdict and digest lines, honors
// -json, and the -requiretransition gate distinguishes finite from
// absent transitions.
func TestCLIWorkload(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "wl.json")
	code, stdout, stderr := runCLI(t, "workload",
		"-semantics", "copy,emulated-weak-move",
		"-depths", "1,4", "-loads", "2", "-workers", "1,2",
		"-requiretransition", "copy",
		"-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{
		"workload fileserver",
		"BIMODAL",
		"copy               rule-3 transition at depth 4",
		"emulated weak move rule-3 transition at depth 1",
		"bit-identical across worker counts",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}

	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.WorkloadReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("bad -json document: %v", err)
	}
	if !rep.Deterministic || len(rep.Runs) != 2 || rep.Result == nil {
		t.Errorf("json report inconsistent: %+v", rep)
	}
	if s := rep.Result.Scheme("copy"); s == nil || s.TransitionDepth != 4 {
		t.Errorf("json report copy transition: %+v", s)
	}
}

// The optimization flags: -parallel fans grid points out without
// perturbing the digest, every -workers count re-simulates the grid,
// -minspeedup times the serial cold regime and reports the speedup plus
// the perf counters, and -norecycle -parallel 1 runs cold while still
// matching bit for bit.
func TestCLIWorkloadPointWorkers(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "wl.json")
	args := []string{"workload",
		"-semantics", "copy", "-depths", "1,4", "-loads", "0.5,2",
		"-ops", "6", "-workers", "1,2"}
	code, stdout, stderr := runCLI(t, append(args,
		"-parallel", "8", "-minspeedup", "0.1", "-json", jsonPath)...)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"point-workers=8", "speedup", "bit-identical"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "workload perf:") {
		t.Errorf("stderr missing perf summary:\n%s", stderr)
	}
	var rep experiments.WorkloadReport
	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("bad -json document: %v", err)
	}
	if rep.PointWorkers != 8 || !rep.Deterministic {
		t.Errorf("report: point workers %d deterministic %v", rep.PointWorkers, rep.Deterministic)
	}
	if rep.SerialColdSec <= 0 || rep.OptimizedSec <= 0 || rep.Speedup <= 0 {
		t.Errorf("speedup fields missing: cold=%v optimized=%v speedup=%v",
			rep.SerialColdSec, rep.OptimizedSec, rep.Speedup)
	}
	// 4 points, simulated at 2 worker counts in the cold and in the
	// optimized regime: one cluster get each.
	if got := rep.Perf.ClustersBuilt + rep.Perf.ClustersRecycled; got != 16 {
		t.Errorf("cluster gets %d, want 16: %+v", got, rep.Perf)
	}

	coldDigest := rep.Runs[0].Digest
	code, stdout, stderr = runCLI(t, append(args, "-norecycle", "-parallel", "1")...)
	if code != 0 {
		t.Fatalf("cold run exit code %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, coldDigest) {
		t.Errorf("cold run digest differs from optimized run %s:\n%s", coldDigest, stdout)
	}
}

// An unmeetable -minspeedup floor fails the run with exit 1 on a host
// with the two CPUs the gate credits, and is skipped on a smaller one.
func TestCLIWorkloadSpeedupGateFails(t *testing.T) {
	code, _, stderr := runCLI(t, "workload",
		"-semantics", "copy", "-depths", "1", "-loads", "1",
		"-ops", "4", "-workers", "1", "-parallel", "2", "-minspeedup", "1e9")
	if min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) < 2 {
		if code != 0 || !strings.Contains(stderr, "gate skipped:") {
			t.Fatalf("exit code %d, want 0 and a skip notice; stderr:\n%s", code, stderr)
		}
		return
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "speedup") {
		t.Errorf("stderr missing speedup diagnostic:\n%s", stderr)
	}
}

// A speedup gate that credits more point workers than the host has CPUs
// is skipped, however unmeetable its floor.
func TestCLIWorkloadSpeedupGateSkips(t *testing.T) {
	code, _, stderr := runCLI(t, "workload",
		"-semantics", "copy", "-depths", "1", "-loads", "1",
		"-ops", "4", "-workers", "1", "-parallel", "1000000", "-minspeedup", "1e9")
	want := regexp.MustCompile(`gate skipped: (NumCPU|GOMAXPROCS)=\d+ < 1000000\n`)
	if code != 0 || !want.MatchString(stderr) {
		t.Fatalf("exit code %d, want 0 and %v; stderr:\n%s", code, want, stderr)
	}
}

// The gate fails when the named semantics never leaves the bimodal
// regime — the stream scenario under overload.
func TestCLIWorkloadGateFails(t *testing.T) {
	code, _, stderr := runCLI(t, "workload",
		"-scenario", "stream", "-semantics", "copy",
		"-depths", "2", "-loads", "2", "-ops", "6", "-workers", "1",
		"-requiretransition", "copy")
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "transition") {
		t.Errorf("stderr missing gate diagnostic:\n%s", stderr)
	}
}

// Workload flag validation: unknown semantics, bad lists, and bad fault
// specs are usage errors (exit 2) naming the offending flag.
func TestCLIWorkloadRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown semantics", []string{"-semantics", "telepathy"}, "-semantics"},
		{"bad depth list", []string{"-depths", "1,x"}, "-depths"},
		{"bad load list", []string{"-loads", "0.5,fast"}, "-loads"},
		{"bad worker list", []string{"-workers", "1,none"}, "-workers"},
		{"zero worker", []string{"-workers", "0"}, "-workers"},
		{"negative parallel", []string{"-parallel", "-1"}, "-parallel"},
		{"malformed faults", []string{"-faults", "seed"}, "-faults"},
		{"unknown scenario", []string{"-scenario", "torrent"}, "scenario"},
		{"bad gate name", []string{"-requiretransition", "telepathy"}, "-requiretransition"},
		{"NaN rto", []string{"-rto", "NaN"}, "-rto"},
		{"NaN loads", []string{"-loads", "NaN"}, "-loads"},
		{"infinite loads", []string{"-loads", "1,Inf"}, "-loads"},
		{"NaN think", []string{"-think", "NaN"}, "-think"},
		{"infinite stream rate", []string{"-streamrate", "+Inf"}, "-streamrate"},
		{"negative clients", []string{"-clients", "-3"}, "-clients"},
		{"negative ops", []string{"-ops", "-1"}, "-ops"},
		{"negative msgbytes", []string{"-msgbytes", "-1"}, "-msgbytes"},
		{"negative pipeline", []string{"-pipeline", "-1"}, "-pipeline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"workload", "-semantics", "copy", "-depths", "1", "-loads", "1"}, tc.args...)
			code, _, stderr := runCLI(t, args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
}

// Hyphenated semantics spellings resolve to the canonical space-
// separated names, so shells need no quoting.
func TestParseSemanticsList(t *testing.T) {
	sems, err := parseSemanticsList("copy, Emulated-Copy ,weak move")
	if err != nil {
		t.Fatal(err)
	}
	if len(sems) != 3 {
		t.Fatalf("parsed %v", sems)
	}
	for i, want := range []string{"copy", "emulated copy", "weak move"} {
		if sems[i].String() != want {
			t.Errorf("sems[%d] = %q, want %q", i, sems[i], want)
		}
	}
	if _, err := parseSemanticsList("move,bogus"); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Errorf("bad name not diagnosed: %v", err)
	}
}

// trace and plot flag validation: each bad value is a usage error
// (exit 2) naming its flag, before anything is simulated or printed.
func TestCLITracePlotRejectBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown figure", []string{"plot", "-fig", "9"}, "-fig"},
		{"unknown semantics", []string{"trace", "-sem", "telepathy"}, "-sem"},
		{"no semantics", []string{"trace", "-sem", ""}, "-sem"},
		{"two semantics", []string{"trace", "-sem", "copy,move"}, "-sem"},
		{"unknown scheme", []string{"trace", "-scheme", "carrier-pigeon"}, "-scheme"},
		{"zero bytes", []string{"trace", "-bytes", "0"}, "-bytes"},
		{"negative bytes", []string{"trace", "-bytes", "-5"}, "-bytes"},
		{"negative devoff", []string{"trace", "-devoff", "-1"}, "-devoff"},
		{"negative appoff", []string{"trace", "-appoff", "-1"}, "-appoff"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) || !strings.Contains(stderr, "Usage") {
				t.Errorf("stderr missing %q or usage:\n%s", tc.want, stderr)
			}
			if stdout != "" {
				t.Errorf("printed on stdout:\n%s", stdout)
			}
		})
	}
}

// -sem takes the same spellings as the other subcommands' semantics
// lists: hyphens print the same trace as spaces.
func TestCLITraceHyphenatedSemantics(t *testing.T) {
	if a, b := stdoutDigest(t, "trace", "-sem", "emulated-copy"), stdoutDigest(t, "trace"); a != b {
		t.Errorf("-sem emulated-copy: sha256 %s, default \"emulated copy\" %s", a, b)
	}
}

// -chrome writes a trace_event document next to the printed breakdown,
// and an unwritable path is a runtime failure.
func TestCLITraceChrome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	code, _, stderr := runCLI(t, "trace", "-sem", "move", "-bytes", "16384", "-scheme", "pooled", "-chrome", path)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("bad Chrome trace (%v): %.200s", err, buf)
	}
	if code, _, _ := runCLI(t, "trace", "-chrome", t.TempDir()); code != 1 {
		t.Errorf("-chrome at a directory: exit code %d, want 1", code)
	}
}
