package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// runCLI invokes run() with captured streams, restoring the harness's
// parallelism and counters afterwards (subcommands restore the memo and
// recycling switches themselves).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	defer func() {
		experiments.SetParallelism(0)
		experiments.ResetPerf()
	}()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// Invalid flag values must exit nonzero with a usage message, not be
// silently clamped or half-applied.
func TestCLIRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "Usage"},
		{"zero parallel", []string{"-parallel", "0"}, "-parallel"},
		{"negative parallel", []string{"-parallel", "-3"}, "-parallel"},
		{"bogus dataplane", []string{"-dataplane", "quantum"}, "-dataplane"},
		{"malformed faults", []string{"chaos", "-spec", "seed"}, "-spec"},
		{"unknown fault key", []string{"chaos", "-spec", "seed=1,bogus=0.5"}, "-spec"},
		{"out-of-range fault rate", []string{"chaos", "-spec", "seed=1,drop=1.5"}, "-spec"},
		{"empty fault spec", []string{"chaos", "-spec", "seed=0"}, "injects nothing"},
		{"zero cluster rounds", []string{"cluster", "-rounds", "0"}, "-rounds"},
		{"negative cluster rounds", []string{"cluster", "-rounds", "-1"}, "-rounds"},
		{"zero cluster bytes", []string{"cluster", "-bytes", "0"}, "-bytes"},
		{"negative cluster bytes", []string{"cluster", "-bytes", "-5"}, "-bytes"},
		{"oversized cluster bytes", []string{"cluster", "-bytes", "70000"}, "-bytes"},
		{"NaN cluster minspeedup", []string{"cluster", "-minspeedup", "NaN"}, "-minspeedup"},
		{"negative cluster minspeedup", []string{"cluster", "-minspeedup", "-3"}, "-minspeedup"},
		{"NaN workload minspeedup", []string{"workload", "-minspeedup", "NaN"}, "-minspeedup"},
		{"negative workload minspeedup", []string{"workload", "-minspeedup", "-3"}, "-minspeedup"},
		{"infinite workload minspeedup", []string{"workload", "-minspeedup", "+Inf"}, "-minspeedup"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
			if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-parallel int") {
				t.Errorf("no usage text on stderr:\n%s", stderr)
			}
		})
	}
}

// Chaos mode: a pinned benign spec must recover everything and exit 0
// with a report on stdout.
func TestCLIChaosMode(t *testing.T) {
	code, stdout, stderr := runCLI(t, "chaos", "-spec", "seed=1,drop=0.25,dup=0.1,corrupt=0.1")
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "recovered") || !strings.Contains(stdout, "retransmits") {
		t.Errorf("chaos report missing expected summary:\n%s", stdout)
	}
}

// A quick real run: one figure, serial, to lock in that the refactored
// entry point still produces output on stdout and the perf summary on
// stderr.
func TestCLIFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure regeneration in -short mode")
	}
	code, stdout, stderr := runCLI(t, "-figures", "-parallel", "2")
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "Figure 3") {
		t.Errorf("stdout missing Figure 3:\n%.400s", stdout)
	}
	if !strings.Contains(stderr, "cache") {
		t.Errorf("stderr missing perf summary:\n%s", stderr)
	}
}
