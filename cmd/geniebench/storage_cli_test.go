package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The storage subcommand end to end: a trimmed sweep exits 0, prints
// per-point lines, the crossover, and matching digests, and the JSON
// report round-trips with the determinism verdict and perf counters.
func TestCLIStorage(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "storage.json")
	code, stdout, stderr := runCLI(t, "storage",
		"-semantics", "copy,emulated-move",
		"-sizes", "512,8192,61440",
		"-cachepages", "16",
		"-dirty", "4",
		"-workers", "1,2",
		"-requirecrossover",
		"-json", jsonPath,
	)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{
		"storage: copy",
		"storage: emulated move",
		"crossover at",
		"digest=",
		"bit-identical across worker counts",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "storage perf:") {
		t.Errorf("stderr missing perf summary:\n%s", stderr)
	}

	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.StorageReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Fatalf("report not deterministic: %+v", rep.Runs)
	}
	if len(rep.Runs) != 2 || rep.Runs[0].Digest != rep.Runs[1].Digest {
		t.Fatalf("runs = %+v", rep.Runs)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("points = %d, want 2 semantics x 3 sizes", len(rep.Points))
	}
	if len(rep.Crossovers) != 1 || rep.Crossovers[0].Bytes == 0 {
		t.Fatalf("crossovers = %+v", rep.Crossovers)
	}
	// Both worker counts simulate all six points: one rig each.
	if got := rep.Perf.Built + rep.Perf.Recycled; got != 12 {
		t.Errorf("rig gets %d, want 12 (6 points x 2 runs): %+v", got, rep.Perf)
	}
}

// Flag validation: bad values exit 2 with usage, not a half-run sweep.
func TestCLIStorageRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-semantics", "teleport"},
		{"-sizes", "0"},
		{"-workers", "0"},
		{"-cachepages", "eight"},
		{"-cachepages", "-1"},
		{"-dirty", "-1"},
		{"-readahead", "-1"},
	}
	for _, args := range cases {
		code, _, stderr := runCLI(t, append([]string{"storage"}, args...)...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2\nstderr:\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, args[0]) {
			t.Errorf("%v: stderr does not name the flag:\n%s", args, stderr)
		}
	}
}
