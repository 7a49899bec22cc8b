package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The shared verdict can fail: a run whose digest depends on the worker
// count, or one that differs only in its record count, is not
// deterministic.
func TestVerifyDetectsDivergence(t *testing.T) {
	cases := map[string]func(w int) (WorkerRun, error){
		"digest": func(w int) (WorkerRun, error) {
			return WorkerRun{Digest: fmt.Sprintf("d%d", w), Records: 7}, nil
		},
		"records": func(w int) (WorkerRun, error) {
			return WorkerRun{Digest: "d", Records: uint64(w)}, nil
		},
	}
	for name, run := range cases {
		v, err := verifyWorkers([]int{1, 4}, run)
		if err != nil {
			t.Fatal(err)
		}
		if v.Deterministic || len(v.Runs) != 2 {
			t.Errorf("%s divergence: deterministic=%v runs=%+v, want a failed verdict over 2 runs",
				name, v.Deterministic, v.Runs)
		}
	}
}

// One worker-count rule for every sweep: empty means 1 and 4, repeats
// run once, the first run is the baseline, and a count below 1 is an
// error that names it before anything runs.
func TestVerifyWorkersRule(t *testing.T) {
	var called []int
	run := func(w int) (WorkerRun, error) {
		called = append(called, w)
		return WorkerRun{Digest: "d", Records: 1}, nil
	}
	if v, err := verifyWorkers(nil, run); err != nil || !v.Deterministic || !slices.Equal(called, []int{1, 4}) {
		t.Errorf("default: called %v, err %v, verdict %+v", called, err, v)
	}
	called = nil
	v, err := verifyWorkers([]int{4, 1, 4, 1}, run)
	if err != nil || !slices.Equal(called, []int{4, 1}) || v.Runs[0].Workers != 4 {
		t.Errorf("repeats: called %v, err %v, runs %+v", called, err, v.Runs)
	}
	called = nil
	if _, err := verifyWorkers([]int{1, 0}, run); err == nil || !strings.Contains(err.Error(), "0 < 1") || called != nil {
		t.Errorf("count 0: err %v, called %v", err, called)
	}
	if _, err := RunStorage(StorageConfig{Workers: []int{0}}); err == nil {
		t.Error("RunStorage accepted worker count 0")
	}
	if _, err := RunWorkload(WorkloadConfig{Workers: []int{0}}); err == nil {
		t.Error("RunWorkload accepted worker count 0")
	}
}
