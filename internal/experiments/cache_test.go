package experiments

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// TestMeasureMemoConcurrent has workers measure overlapping points at
// once, each from a different starting point, and asserts every result
// equals a memo-off Measure of the same point and every call counts as
// one hit or one miss. Run under -race it also locks in the memo's
// locking.
func TestMeasureMemoConcurrent(t *testing.T) {
	type point struct {
		s      Setup
		sem    core.Semantics
		length int
	}
	var pts []point
	for _, scheme := range []netsim.InputBuffering{netsim.EarlyDemux, netsim.OutboardBuffering} {
		for _, sem := range []core.Semantics{core.Copy, core.EmulatedCopy, core.Move} {
			for _, length := range []int{3000, 12288} {
				pts = append(pts, point{Setup{Scheme: scheme}, sem, length})
			}
		}
	}
	want := make([]Measurement, len(pts))
	withPerfRegime(t, false, true, 1, func() {
		for i, p := range pts {
			m, err := Measure(p.s, p.sem, p.length)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = m
		}
	})

	const workers = 8
	got := make([][]Measurement, workers)
	errs := make([]error, workers)
	withPerfRegime(t, true, true, 1, func() {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = make([]Measurement, len(pts))
				for k := range pts {
					i := (w + k) % len(pts)
					p := pts[i]
					if got[w][i], errs[w] = Measure(p.s, p.sem, p.length); errs[w] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for w := range workers {
			if errs[w] != nil {
				t.Fatalf("worker %d: %v", w, errs[w])
			}
			for i, p := range pts {
				if !reflect.DeepEqual(got[w][i], want[i]) {
					t.Errorf("worker %d, %v %v %d bytes: memoized %+v, memo off %+v",
						w, p.s.Scheme, p.sem, p.length, got[w][i], want[i])
				}
			}
		}
		st := Perf()
		if calls := uint64(workers * len(pts)); st.CacheHits+st.CacheMisses != calls {
			t.Errorf("%d hits + %d misses, want %d calls", st.CacheHits, st.CacheMisses, calls)
		}
		if st.CacheMisses < uint64(len(pts)) {
			t.Errorf("%d misses for %d distinct points", st.CacheMisses, len(pts))
		}
	})
}

// An unsupported combination is deterministic, so its error is memoized
// like a measurement: the second call returns the same sentinel without
// simulating again.
func TestMeasureMemoMemoizesErrors(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Checksum = core.ChecksumSeparate
	s := Setup{Genie: cfg} // checksumming is defined for copy semantics only
	withPerfRegime(t, true, true, 1, func() {
		_, first := Measure(s, core.Share, 4096)
		_, second := Measure(s, core.Share, 4096)
		for i, err := range []error{first, second} {
			if !errors.Is(err, core.ErrChecksumUnsupported) {
				t.Errorf("call %d: err = %v, want %v", i+1, err, core.ErrChecksumUnsupported)
			}
		}
		if first != second {
			t.Errorf("second call returned %v, want the memoized %v", second, first)
		}
		if st := Perf(); st.CacheHits != 1 || st.CacheMisses != 1 {
			t.Errorf("%d hits and %d misses, want 1 and 1", st.CacheHits, st.CacheMisses)
		}
	})
}

// With the memo switched off every call simulates and counts a miss,
// and an entry made before the switch serves again once it is back on.
func TestMeasureMemoSwitchOff(t *testing.T) {
	s := Setup{Scheme: netsim.Pooled}
	measure := func() {
		t.Helper()
		if _, err := Measure(s, core.Copy, 4096); err != nil {
			t.Fatal(err)
		}
	}
	withPerfRegime(t, true, true, 1, func() {
		measure()
		if !SetMemo(false) {
			t.Fatal("SetMemo(false) reported the memo was already off")
		}
		measure()
		measure()
		if SetMemo(true) {
			t.Error("SetMemo(false) did not switch the memo off")
		}
		measure()
		if st := Perf(); st.CacheHits != 1 || st.CacheMisses != 3 {
			t.Errorf("%d hits and %d misses, want 1 and 3", st.CacheHits, st.CacheMisses)
		}
	})
}

// ResetPerf empties the memo: a point measured before it misses again
// after it.
func TestMeasureMemoResetPerf(t *testing.T) {
	s := Setup{Scheme: netsim.EarlyDemux}
	measure := func() {
		t.Helper()
		if _, err := Measure(s, core.Share, 8192); err != nil {
			t.Fatal(err)
		}
	}
	withPerfRegime(t, true, true, 1, func() {
		measure()
		measure()
		if st := Perf(); st.CacheHits != 1 || st.CacheMisses != 1 {
			t.Fatalf("%d hits and %d misses before ResetPerf, want 1 and 1", st.CacheHits, st.CacheMisses)
		}
		ResetPerf()
		if st := Perf(); st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Errorf("ResetPerf left %d hits and %d misses", st.CacheHits, st.CacheMisses)
		}
		measure()
		if st := Perf(); st.CacheHits != 0 || st.CacheMisses != 1 {
			t.Errorf("after ResetPerf: %d hits and %d misses, want 0 and 1 (the entry is gone)",
				st.CacheHits, st.CacheMisses)
		}
	})
}
