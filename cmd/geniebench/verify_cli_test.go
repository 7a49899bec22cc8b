package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// A diverged verification goes through the one printer and the one
// gate: the verdict line says so and the run fails.
func TestCLIVerificationDiverges(t *testing.T) {
	v := experiments.Verification{
		GOMAXPROCS: 2, NumCPU: 2,
		Runs: []experiments.WorkerRun{
			{Workers: 1, Digest: "aaaa", Records: 3},
			{Workers: 4, Digest: "bbbb", Records: 3},
		},
	}
	var stdout, stderr bytes.Buffer
	printVerification(&stdout, "storage", v)
	if !strings.Contains(stdout.String(), "storage: DIGESTS DIVERGE") {
		t.Errorf("stdout missing the divergence verdict:\n%s", stdout.String())
	}
	code := 0
	if divergenceGate(&stderr, "storage", v) {
		code = 1
	}
	if code != 1 || !strings.Contains(stderr.String(), "FAIL: storage digests diverge") {
		t.Errorf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
}

// Every worker-count sweep reads -workers by one rule: a count below 1
// or a non-number is a usage error (exit 2 with usage text), and a
// repeated count runs once.
func TestCLIWorkersRule(t *testing.T) {
	small := map[string][]string{
		"cluster":  {"-hosts", "3", "-rounds", "1"},
		"workload": {"-semantics", "copy", "-depths", "1", "-loads", "1", "-ops", "2"},
		"storage":  {"-semantics", "copy", "-sizes", "512", "-cachepages", "8", "-dirty", "0"},
	}
	for cmd, args := range small {
		for _, bad := range []string{"0", "x", "1,-4"} {
			code, _, stderr := runCLI(t, cmd, "-workers", bad)
			if code != 2 || !strings.Contains(stderr, "-workers") || !strings.Contains(stderr, "Usage") {
				t.Errorf("%s -workers %s: exit %d, want 2 with usage; stderr:\n%s", cmd, bad, code, stderr)
			}
		}
		jsonPath := filepath.Join(t.TempDir(), cmd+".json")
		code, _, stderr := runCLI(t, append([]string{cmd, "-workers", "4,4", "-json", jsonPath}, args...)...)
		if code != 0 {
			t.Fatalf("%s -workers 4,4: exit %d; stderr:\n%s", cmd, code, stderr)
		}
		buf, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		var reports []experiments.Verification
		if cmd == "cluster" {
			var doc clusterDoc
			err = json.Unmarshal(buf, &doc)
			if err == nil {
				reports = append(reports, doc.Incast.Verification, doc.Ring.Verification)
			}
		} else {
			var v experiments.Verification
			err = json.Unmarshal(buf, &v)
			reports = append(reports, v)
		}
		if err != nil {
			t.Fatalf("%s: bad JSON: %v", cmd, err)
		}
		for _, v := range reports {
			if len(v.Runs) != 1 || v.Runs[0].Workers != 4 || v.Runs[0].Records == 0 {
				t.Errorf("%s -workers 4,4: runs %+v, want one run at 4 workers with records", cmd, v.Runs)
			}
		}
	}
}
