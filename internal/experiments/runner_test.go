package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		var hits [100]int32
		err := Runner{Workers: workers}.ForEach(len(hits), func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
	}
}

// The runner's error must be deterministic: the error of the lowest
// failing index — exactly what the serial loop would return — no matter
// how the workers interleave.
func TestForEachDeterministicError(t *testing.T) {
	failAt := map[int]bool{7: true, 23: true, 61: true}
	for _, workers := range []int{1, 2, 8} {
		for round := 0; round < 20; round++ {
			err := Runner{Workers: workers}.ForEach(100, func(i int) error {
				if failAt[i] {
					return fmt.Errorf("point %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "point 7 failed" {
				t.Fatalf("workers=%d: err = %v, want the lowest failing index (7)", workers, err)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	if err := (Runner{Workers: 4}).ForEach(0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n = 0")
	}
}

func TestForEachSkipsPastFailure(t *testing.T) {
	// Indices after a failure may be skipped, but every index before the
	// failing one must run.
	var ran [50]int32
	wantErr := errors.New("boom")
	err := Runner{Workers: 4}.ForEach(len(ran), func(i int) error {
		atomic.AddInt32(&ran[i], 1)
		if i == 10 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	for i := 0; i < 10; i++ {
		if atomic.LoadInt32(&ran[i]) != 1 {
			t.Fatalf("index %d before the failure did not run", i)
		}
	}
}

// TestParallelMatchesSerialFigure3 asserts the runner's determinism
// property: the parallel runner's Figure 3 — every series, every float —
// is identical to the serial path.
func TestParallelMatchesSerialFigure3(t *testing.T) {
	serial, err := Figure3(Setup{}, Runner{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure3(Setup{}, Runner{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Figure 3 differs from serial:\nserial:\n%v\nparallel:\n%v", serial, parallel)
	}
}

// TestParallelMatchesSerialTable6 asserts the same for Table 6, whose
// instrumented sample collection is the most order-sensitive consumer of
// the runner (the least-squares fits see samples in collection order).
func TestParallelMatchesSerialTable6(t *testing.T) {
	if testing.Short() {
		t.Skip("full instrumented sweep in -short mode")
	}
	serial, err := Table6(Setup{}, Runner{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table6(Setup{}, Runner{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Table 6 differs from serial:\nserial:\n%v\nparallel:\n%v", serial, parallel)
	}
}

// TestParallelMatchesSerialAblations covers the grid-shaped ablations,
// which assemble rows from flattened index spaces.
func TestParallelMatchesSerialAblations(t *testing.T) {
	gens := map[string]func(Setup, Runner) (Table, error){
		"wiring":     AblationWiring,
		"thresholds": AblationThresholds,
	}
	for name, gen := range gens {
		serial, err := gen(Setup{}, Runner{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := gen(Setup{}, Runner{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s: parallel output differs from serial", name)
		}
	}
}
