package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// withPerfRegime runs f with the memo pinned, from a cold memo and
// empty free lists, restoring the previous setting afterwards.
func withPerfRegime(t *testing.T, memo bool, f func()) {
	t.Helper()
	prevMemo := SetMemo(memo)
	defer func() {
		SetMemo(prevMemo)
		ResetPerf()
	}()
	ResetPerf()
	f()
}

// measureFresh is the reference measurement: the point simulated on a
// newly built testbed, bypassing the memo and the testbed recycler.
func measureFresh(s Setup, sem core.Semantics, length int) (Measurement, error) {
	tb, err := core.NewTestbed(measureTestbedConfig(s))
	if err != nil {
		return Measurement{}, err
	}
	return measureOn(tb, s, sem, length)
}

// renderFullSet runs every registered experiment on r, each from the
// base setup base returns for it, and renders them into one string.
func renderFullSet(t *testing.T, r Runner, base func(Experiment) Setup) string {
	t.Helper()
	var b strings.Builder
	for _, e := range Experiments {
		out, err := e.Run(base(e), r)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		out.Render(&b)
		b.WriteByte('\n')
	}
	return b.String()
}

// from gives every experiment the base s.
func from(s Setup) func(Experiment) Setup { return func(Experiment) Setup { return s } }

// TestFullSetByteIdenticalAcrossRegimes asserts the harness's determinism
// property: the full figure/table set is byte-identical whether each
// point is measured on a fresh testbed without the memo or through the
// memo and testbed recycler, at one worker versus 8, and on the bytes
// versus the symbolic data plane. The fresh serial regime on the
// default (symbolic) plane is the ground truth; every accelerated or
// re-represented regime must match it byte for byte. The traced regime also checks that the base setup reaches every
// experiment: each one that simulates must emit events into the tracer
// its base carries.
func TestFullSetByteIdenticalAcrossRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("six full evaluation runs in -short mode")
	}
	serial, parallel := Runner{Workers: 1}, Runner{Workers: 8}
	var freshSerial, cachedSerial, cachedParallel, traced, bytesPlane, armedFaults string
	withPerfRegime(t, true, func() {
		freshSerial = renderFullSet(t, Runner{Workers: 1, measure: measureFresh}, from(Setup{}))
		if p := Perf(); p.CacheHits+p.CacheMisses+p.TestbedsBuilt+p.TestbedsRecycled != 0 {
			t.Errorf("the fresh regime reached the memo or the testbed recycler: %+v", p)
		}
	})
	withPerfRegime(t, true, func() { cachedSerial = renderFullSet(t, serial, from(Setup{})) })
	withPerfRegime(t, true, func() { cachedParallel = renderFullSet(t, parallel, from(Setup{})) })
	// Tracing must observe without perturbing: a fully traced run (which
	// bypasses the memo cache point by point) renders the same bytes.
	// Serial, because the counting sinks are not synchronized. Each
	// experiment traces into its own sink.
	events := map[string]*discardCount{}
	withPerfRegime(t, true, func() {
		traced = renderFullSet(t, serial, func(e Experiment) Setup {
			sink := &discardCount{}
			events[e.Name] = sink
			return Setup{Tracer: trace.New(sink)}
		})
	})
	// The data plane is a representation choice, never a result: a full
	// run on materialized bytes must render the same output as the
	// symbolic default.
	withPerfRegime(t, true, func() {
		bytesPlane = renderFullSet(t, parallel, from(Setup{Plane: mem.Bytes}))
	})
	// A seed-only fault spec arms the injector without ever firing it: a
	// full run with injection attached but silent must render the seed
	// figures byte for byte (zero-rate decisions draw no randomness and
	// the recovery machinery stays dormant without fired faults).
	withPerfRegime(t, true, func() {
		armedFaults = renderFullSet(t, parallel, from(Setup{Faults: faults.Spec{Seed: 1}}))
	})
	// A spec that drops nine frames in ten, by contrast, fails every
	// experiment whose testbeds carry it.
	firedErrs := map[string]error{}
	withPerfRegime(t, true, func() {
		for _, e := range Experiments {
			_, firedErrs[e.Name] = e.Run(Setup{Faults: faults.Spec{Seed: 1, Drop: 0.9}}, parallel)
		}
	})
	if cachedSerial != freshSerial {
		t.Errorf("cached serial output differs from fresh serial output")
	}
	if cachedParallel != freshSerial {
		t.Errorf("cached parallel-8 output differs from fresh serial output")
	}
	if traced != freshSerial {
		t.Errorf("traced output differs from fresh serial output")
	}
	if bytesPlane != freshSerial {
		t.Errorf("bytes-plane output differs from symbolic-plane output")
	}
	if armedFaults != freshSerial {
		t.Errorf("armed-but-silent fault injector perturbed the output")
	}
	// Tables 1 and 5 print hardware data and simulate nothing; every
	// other experiment must carry the base's tracer and fault spec to
	// everything it simulates.
	for _, e := range Experiments {
		n, err := events[e.Name].n, firedErrs[e.Name]
		static := e.Name == "Table 1" || e.Name == "Table 5"
		switch {
		case static && (n != 0 || err != nil):
			t.Errorf("%s: a static table emitted %d events and, dropping frames, failed with %v", e.Name, n, err)
		case !static && n == 0:
			t.Errorf("%s: emitted no events: its setups drop the base's tracer", e.Name)
		case !static && err == nil:
			t.Errorf("%s: ran clean while its base dropped 9 frames in 10: its setups drop the base's fault spec", e.Name)
		}
	}
}

// discardCount counts emitted events and drops them.
type discardCount struct{ n uint64 }

func (s *discardCount) Emit(trace.Event) { s.n++ }

// TestCacheSharesPointsAcrossGenerators asserts the cache actually
// dedupes across generators: Figure 3 and its throughput table probe
// the same max-datagram points, so generating both must simulate the
// shared points exactly once.
func TestCacheSharesPointsAcrossGenerators(t *testing.T) {
	withPerfRegime(t, true, func() {
		if _, err := Figure3(Setup{}, Runner{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		misses := Perf().CacheMisses
		if _, err := Figure3Throughput(Setup{}, Runner{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		after := Perf()
		if after.CacheMisses != misses {
			t.Errorf("Figure 3 throughput re-simulated %d points already measured for Figure 3",
				after.CacheMisses-misses)
		}
		if after.CacheHits == 0 {
			t.Errorf("no cache hits across Figure 3 + throughput table")
		}
	})
}

// TestCacheDistinguishesSetups asserts the key covers every axis that
// changes the simulation: distinct configurations must not share
// entries, while the zero Genie config must share with the explicit
// defaults NewTestbed would substitute for it.
func TestCacheDistinguishesSetups(t *testing.T) {
	base := Setup{Scheme: netsim.EarlyDemux}
	variants := []Setup{
		base,
		{Scheme: netsim.Pooled},
		{Scheme: netsim.Pooled, AppOffset: 1000},
		{Scheme: netsim.EarlyDemux, Instrument: true},
		{Scheme: netsim.EarlyDemux, Model: cost.NewModel(cost.MicronP166, cost.CreditNetOC12)},
		// The planes produce identical measurements but run on different
		// testbeds; sharing entries would mask a plane-identity bug.
		{Scheme: netsim.EarlyDemux, Plane: mem.Bytes},
		// A seed-only armed injector measures identically to the fault-
		// free default, but its testbeds carry an injector: no sharing.
		{Scheme: netsim.EarlyDemux, Faults: faults.Spec{Seed: 7}},
	}
	keys := map[cacheKey]int{}
	for i, v := range variants {
		k := measureKey(v, core.Copy, 4096)
		if j, ok := keys[k]; ok {
			t.Errorf("variants %d and %d share a memo key: %+v", j, i, k)
		}
		keys[k] = i
	}
	if measureKey(base, core.Copy, 4096) == measureKey(base, core.Share, 4096) ||
		measureKey(base, core.Copy, 4096) == measureKey(base, core.Copy, 8192) {
		t.Error("semantics or length missing from the memo key")
	}

	// The zero config and the explicit defaults are the same simulation
	// and must share one entry.
	withDefaults := base
	withDefaults.Genie = core.DefaultConfig()
	if measureKey(withDefaults, core.Copy, 4096) != measureKey(base, core.Copy, 4096) {
		t.Error("zero-value Genie config does not share the defaults' memo key")
	}
}

// TestRecycleCounters asserts a serial sweep over one configuration
// builds one testbed and reuses it for every later point: free testbeds
// are never lost to garbage collection, so the split is exact.
func TestRecycleCounters(t *testing.T) {
	withPerfRegime(t, false, func() {
		lengths := []int{4096, 8192, 12288, 16384}
		ResetPerf()
		for _, b := range lengths {
			if _, err := Measure(Setup{Scheme: netsim.EarlyDemux}, core.Share, b); err != nil {
				t.Fatal(err)
			}
		}
		st := Perf()
		if st.TestbedsBuilt != 1 || st.TestbedsRecycled != uint64(len(lengths)-1) {
			t.Errorf("built %d, recycled %d; want 1 and %d (one build, then reuse)",
				st.TestbedsBuilt, st.TestbedsRecycled, len(lengths)-1)
		}
		if st.ResetFailures != 0 {
			t.Errorf("reset failures = %d, want 0", st.ResetFailures)
		}
	})
}

// TestRecycledMeasureAllocs counts the heap allocations of one real
// measurement on a warm recycled testbed, with the memo off, at
// every grid point: each input scheme, all eight semantics, aligned and
// at AppOffset 1000, 3000 and 61440 bytes. A recycled testbed keeps its
// frame free list, pool pages, page tables, object page slots, region
// lists and reference lists, port records and Process-API operation
// records; the symbolic plane gathers into stages and wire run lists
// the receiver hands back, or under outboard buffering the staged
// buffer returns when it is freed. What remains are the records callers
// keep, which stay fresh so that a stale one never aliases a live one:
// per host one Process, one AddressSpace, one chunk of Region records
// and one chunk of MemObject records, 8 in all, at every point. The
// parent of this gate made 20-27 (a fresh Input/Output record and its
// callbacks, reference and region lists, run lists and overlay and
// outboard records each time). A warm Testbed.Reset itself allocates
// nothing under any scheme.
func TestRecycledMeasureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	const maxAllocs = 8
	schemes := []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering}
	withPerfRegime(t, false, func() {
		for _, scheme := range schemes {
			for _, sem := range core.AllSemantics() {
				for _, off := range []int{0, 1000} {
					for _, length := range []int{3000, 61440} {
						s := Setup{Scheme: scheme, AppOffset: off}
						measure := func() {
							if _, err := Measure(s, sem, length); err != nil {
								t.Fatal(err)
							}
						}
						for range 5 {
							measure()
						}
						if a := testing.AllocsPerRun(50, measure); a > maxAllocs {
							t.Errorf("%v %v AppOffset %d %d bytes: a recycled Measure allocates %.1f times, want at most %d",
								scheme, sem, off, length, a, maxAllocs)
						}
					}
				}
			}
		}

		// Reset after real runs, counting only the Reset calls.
		for _, scheme := range schemes {
			s := Setup{Scheme: scheme}
			tb, err := core.NewTestbed(measureTestbedConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			var resetAllocs uint64
			for i := range 20 {
				sem := core.AllSemantics()[i%8]
				if _, err := measureOn(tb, s, sem, 61440-i*1000); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				err := tb.Reset()
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if i >= 8 { // the first Resets size the spare lists
					resetAllocs += after.Mallocs - before.Mallocs
				}
			}
			if resetAllocs != 0 {
				t.Errorf("%v: 12 warm Testbed.Reset calls allocated %d times, want 0", scheme, resetAllocs)
			}
		}
	})
}
