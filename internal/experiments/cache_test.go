package experiments

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
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
	withPerfRegime(t, false, func() {
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
	withPerfRegime(t, true, func() {
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
	withPerfRegime(t, true, func() {
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
	withPerfRegime(t, true, func() {
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
	withPerfRegime(t, true, func() {
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

// TestMeasureMemoGrowsConcurrently has workers measure 100 distinct
// points at once, each from a different starting point, on a fresh
// memo: its table starts at 64 slots and is never more than half full,
// so it doubles at least twice while lookups probe it. Every result
// must equal a memo-off Measure of the same point, and every call counts
// as one hit or one miss. Run under -race it also checks that lookups
// need no lock.
func TestMeasureMemoGrowsConcurrently(t *testing.T) {
	const points = 100
	s := Setup{Scheme: netsim.EarlyDemux}
	length := func(i int) int { return 100 + 97*i }
	want := make([]Measurement, points)
	withPerfRegime(t, false, func() {
		for i := range want {
			m, err := Measure(s, core.Copy, length(i))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = m
		}
	})

	old := measureMemo
	defer func() { measureMemo = old }()
	measureMemo = newMemo()
	start := len(*measureMemo.table.Load())

	const workers = 4
	got := make([][]Measurement, workers)
	errs := make([]error, workers)
	withPerfRegime(t, true, func() {
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = make([]Measurement, points)
				for k := range points {
					i := (w*points/workers + k) % points
					if got[w][i], errs[w] = Measure(s, core.Copy, length(i)); errs[w] != nil {
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
			for i := range points {
				if !reflect.DeepEqual(got[w][i], want[i]) {
					t.Errorf("worker %d, %d bytes: memoized %+v, memo off %+v", w, length(i), got[w][i], want[i])
				}
			}
		}
		st := Perf()
		if st.CacheHits+st.CacheMisses != workers*points {
			t.Errorf("%d hits + %d misses, want %d calls", st.CacheHits, st.CacheMisses, workers*points)
		}
		if st.CacheMisses < points {
			t.Errorf("%d misses for %d distinct points", st.CacheMisses, points)
		}
		if size := len(*measureMemo.table.Load()); size < 4*start {
			t.Errorf("table grew from %d to %d slots, want at least two doublings", start, size)
		}
	})

	// Serially, on another fresh memo, the first pass misses on every
	// point and the second hits on every point: a lookup that starts
	// after a store has returned sees it, across both doublings.
	measureMemo = newMemo()
	withPerfRegime(t, true, func() {
		for pass := range 2 {
			for i := range points {
				if _, err := Measure(s, core.Copy, length(i)); err != nil {
					t.Fatal(err)
				}
			}
			if st := Perf(); st.CacheMisses != points || st.CacheHits != uint64(pass*points) {
				t.Errorf("after serial pass %d: %d hits and %d misses, want %d and %d",
					pass+1, st.CacheHits, st.CacheMisses, pass*points, points)
			}
		}
	})
}

// TestMemoKeyIdentity walks cacheKey's fields by reflection, into its
// nested structs, and for each leaf makes a key that differs from a
// base key in that leaf alone. The two keys must never share an entry:
// each finds its own result, by its own hash and under a forced hash
// collision, and the two hashes differ, so a field the hand-written
// hash leaves out fails. A field of a kind the walk cannot vary fails
// the test until the walk handles it. Keys equal under == hash
// equally: a key whose fault rate is -0 where the stored key's is +0,
// in any rate, hashes the same and hits the stored entry.
func TestMemoKeyIdentity(t *testing.T) {
	base := measureKey(Setup{Scheme: netsim.Pooled, Faults: faults.Spec{Seed: 3, Drop: 0.25}}, core.Copy, 4096)
	type variant struct {
		name string
		key  cacheKey
	}
	var variants []variant
	var walk func(index []int, typ reflect.Type, prefix string)
	walk = func(index []int, typ reflect.Type, prefix string) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			at := append(index[:len(index):len(index)], i)
			if f.Type.Kind() == reflect.Struct {
				walk(at, f.Type, prefix+f.Name+".")
				continue
			}
			k := base
			v := reflect.ValueOf(&k).Elem().FieldByIndex(at)
			v = reflect.NewAt(v.Type(), v.Addr().UnsafePointer()).Elem() // settable though unexported
			switch v.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float32, reflect.Float64:
				v.SetFloat(v.Float() + 0.5)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.String:
				v.SetString(v.String() + "'")
			default:
				t.Errorf("cacheKey field %s%s has kind %v, which the test cannot vary", prefix, f.Name, v.Kind())
				continue
			}
			variants = append(variants, variant{prefix + f.Name, k})
		}
	}
	walk(nil, reflect.TypeFor[cacheKey](), "")

	result := func(n int) memoResult { return memoResult{m: Measurement{Bytes: n}} }
	for _, v := range variants {
		if v.key == base {
			t.Errorf("changing %s left the key equal to the base", v.name)
			continue
		}
		c := newMemo()
		hb := c.hash(base)
		if c.hash(v.key) == hb {
			t.Errorf("a key differing in %s alone hashes like the base: the hash leaves the field out", v.name)
		}
		c.store(base, hb, result(1))
		if r, _, ok := c.lookup(v.key); ok {
			t.Errorf("a key differing in %s alone found the base's entry %+v", v.name, r)
		}
		c.store(v.key, c.hash(v.key), result(2))
		for _, k := range []struct {
			key  cacheKey
			want int
		}{{base, 1}, {v.key, 2}} {
			if r, _, ok := c.lookup(k.key); !ok || r.m.Bytes != k.want {
				t.Errorf("%s: lookup = %+v, %v; want result %d", v.name, r, ok, k.want)
			}
		}

		// A forced collision: both keys under the base's hash.
		c = newMemo()
		c.store(base, hb, result(1))
		if e := c.table.Load().find(hb, v.key); e != nil {
			t.Errorf("%s: a colliding key found the base's entry", v.name)
		}
		c.store(v.key, hb, result(2))
		if e := c.table.Load().find(hb, v.key); e == nil || e.r.m.Bytes != 2 {
			t.Errorf("%s: a colliding key lost its own entry", v.name)
		}
	}
	if len(variants) < 10 {
		t.Errorf("walked %d leaves, want at least one per cacheKey field", len(variants))
	}

	zero := base
	zero.faults = faults.Spec{Seed: base.faults.Seed}
	rates := reflect.ValueOf(&zero.faults).Elem()
	for i := range rates.NumField() {
		if rates.Field(i).Kind() != reflect.Float64 {
			continue
		}
		negZero := zero
		reflect.ValueOf(&negZero.faults).Elem().Field(i).SetFloat(math.Copysign(0, -1))
		name := rates.Type().Field(i).Name
		c := newMemo()
		if negZero != zero || c.hash(negZero) != c.hash(zero) {
			t.Errorf("keys equal under == hash differently (%s -0 against +0)", name)
		}
		c.store(zero, c.hash(zero), result(1))
		if r, _, ok := c.lookup(negZero); !ok || r.m.Bytes != 1 {
			t.Errorf("a key with %s -0 missed the entry stored with +0: %+v, %v", name, r, ok)
		}
	}
}

// TestMeasureMemoHitAllocs: a Measure served by the memo allocates
// nothing; building the key, hashing it, probing the table and counting
// the hit all stay off the heap.
func TestMeasureMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	withPerfRegime(t, true, func() {
		for _, s := range []Setup{{Scheme: netsim.EarlyDemux}, {Scheme: netsim.OutboardBuffering, AppOffset: 1000}} {
			measure := func() {
				if _, err := Measure(s, core.EmulatedCopy, 61440); err != nil {
					t.Fatal(err)
				}
			}
			measure()
			if a := testing.AllocsPerRun(100, measure); a != 0 {
				t.Errorf("%v AppOffset %d: a memo hit allocates %.1f times, want 0", s.Scheme, s.AppOffset, a)
			}
		}
		if st := Perf(); st.CacheMisses != 2 {
			t.Errorf("%d misses, want 2 (every later call a hit)", st.CacheMisses)
		}
	})
}
