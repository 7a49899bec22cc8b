package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// Cluster mode with a small configuration: must report bit-identical
// digests, write the JSON document, and exit 0 without a speedup gate.
func TestCLIClusterMode(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	code, stdout, stderr := runCLI(t,
		"cluster", "-hosts", "9", "-rounds", "2",
		"-bytes", "4096", "-workers", "1,2,4",
		"-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "cluster incast:") || !strings.Contains(stdout, "cluster ring:") {
		t.Fatalf("stdout missing workload reports:\n%s", stdout)
	}
	if !strings.Contains(stdout, "bit-identical across worker counts") {
		t.Fatalf("stdout missing determinism verdict:\n%s", stdout)
	}
	buf, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc clusterDoc
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("bad JSON document: %v", err)
	}
	if doc.Incast == nil || doc.Ring == nil {
		t.Fatal("JSON document missing a workload report")
	}
	if !doc.Incast.Deterministic || !doc.Ring.Deterministic {
		t.Fatalf("determinism not recorded: %+v", doc)
	}
	if doc.Incast.Hosts != 9 || len(doc.Incast.Runs) != 3 {
		t.Fatalf("incast report = %+v", doc.Incast)
	}
	if doc.Incast.NumCPU < 1 || doc.Ring.GOMAXPROCS < 1 {
		t.Fatalf("environment not recorded: %+v", doc)
	}
}

// The speedup gate must fail the run when set impossibly high — no
// machine beats 1000x — while the digest checks still pass. A host with
// fewer CPUs than the largest worker count skips the gate instead.
func TestCLIClusterSpeedupGate(t *testing.T) {
	code, stdout, stderr := runCLI(t,
		"cluster", "-hosts", "5", "-rounds", "1",
		"-workers", "1,2", "-minspeedup", "1000")
	if min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) < 2 {
		if code != 0 || !strings.Contains(stderr, "gate skipped:") {
			t.Fatalf("exit code %d, want 0 and a skip notice\nstderr:\n%s", code, stderr)
		}
		return
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "self-speedup") {
		t.Fatalf("stderr missing speedup failure:\n%s", stderr)
	}
}

// Crediting more workers than the host has CPUs skips the ring gate,
// however unmeetable its floor.
func TestCLIClusterSpeedupGateSkips(t *testing.T) {
	code, _, stderr := runCLI(t,
		"cluster", "-hosts", "3", "-rounds", "1",
		"-workers", "1,1000000", "-minspeedup", "1000")
	want := regexp.MustCompile(`gate skipped: (NumCPU|GOMAXPROCS)=\d+ < 1000000\n`)
	if code != 0 || !want.MatchString(stderr) {
		t.Fatalf("exit code %d, want 0 and %v\nstderr:\n%s", code, want, stderr)
	}
}

// Bad cluster flag values exit 2 with usage.
func TestCLIClusterBadFlags(t *testing.T) {
	code, _, stderr := runCLI(t, "cluster", "-hosts", "1")
	if code != 2 || !strings.Contains(stderr, "-hosts must be at least 2") {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr)
	}
	code, _, stderr = runCLI(t, "cluster", "-workers", "1,zero")
	if code != 2 {
		t.Fatalf("exit code %d for bad worker list, want 2; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "-workers: bad count") {
		t.Fatalf("stderr missing flag name:\n%s", stderr)
	}
}
