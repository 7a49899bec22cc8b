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
	"repro/internal/par"
	"repro/internal/trace"
)

// withPerfRegime runs f with the memo, recycling, and parallelism
// pinned, from a cold memo and empty free lists, restoring the previous
// configuration afterwards.
func withPerfRegime(t *testing.T, memo, recycle bool, workers int, f func()) {
	t.Helper()
	prevMemo, prevRecycle, prevWorkers := par.SetMemo(memo), par.SetRecycling(recycle), Parallelism()
	defer func() {
		par.SetMemo(prevMemo)
		par.SetRecycling(prevRecycle)
		SetParallelism(prevWorkers)
		ResetPerf()
	}()
	SetParallelism(workers)
	ResetPerf()
	f()
}

// renderFullSet regenerates every figure and table geniebench prints —
// the sweeps, the fitted tables, the throughput extensions, and the
// ablations — and renders them into one string.
func renderFullSet(t *testing.T) string {
	t.Helper()
	return renderFullSetWith(t, Setup{})
}

// renderFullSetWith is renderFullSet with base threaded into every
// generator that takes a Setup (the ablations fix their own setups).
func renderFullSetWith(t *testing.T, base Setup) string {
	t.Helper()
	fig := func(fn func(Setup) (Figure, error)) func() (string, error) {
		return func() (string, error) { f, err := fn(base); return f.String(), err }
	}
	tabS := func(fn func(Setup) (Table, error)) func() (string, error) {
		return func() (string, error) { tb, err := fn(base); return tb.String(), err }
	}
	tab := func(fn func() (Table, error)) func() (string, error) {
		return func() (string, error) { tb, err := fn(); return tb.String(), err }
	}
	gens := []func() (string, error){
		fig(Figure3), fig(Figure4), fig(Figure5), fig(Figure6), fig(Figure7),
		fig(FigureOutboard),
		tabS(Figure3Throughput), tabS(Table6), tabS(Table7),
		tab(Table8), tab(TableOC12),
		tab(func() (Table, error) { return TableThroughput(cost.CreditNetOC3) }),
		tab(func() (Table, error) { return TableThroughput(cost.CreditNetOC12) }),
		tab(AblationWiring), tab(AblationAlignment), tab(AblationThresholds),
		tab(AblationReverseCopyout), tab(AblationOutputProtection),
		tab(AblationChecksum), tab(AblationPageout),
	}
	var b strings.Builder
	for _, g := range gens {
		s, err := g()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFullSetByteIdenticalAcrossRegimes asserts the tentpole determinism
// property: the full figure/table set is byte-identical with the
// measurement cache and testbed recycling on or off, at -parallel 1
// versus 8, and on the bytes versus the symbolic data plane. The cold
// serial regime on the default (symbolic) plane is the ground truth;
// every accelerated or re-represented regime must match it byte for
// byte.
func TestFullSetByteIdenticalAcrossRegimes(t *testing.T) {
	if testing.Short() {
		t.Skip("five full evaluation runs in -short mode")
	}
	var coldSerial, cachedSerial, cachedParallel, traced, bytesPlane, armedFaults string
	sink := &discardCount{}
	withPerfRegime(t, false, false, 1, func() { coldSerial = renderFullSet(t) })
	withPerfRegime(t, true, true, 1, func() { cachedSerial = renderFullSet(t) })
	withPerfRegime(t, true, true, 8, func() { cachedParallel = renderFullSet(t) })
	// Tracing must observe without perturbing: a fully traced run (which
	// bypasses the memo cache point by point) renders the same bytes.
	// Serial, because the bundled sinks are not synchronized.
	withPerfRegime(t, true, true, 1, func() {
		traced = renderFullSetWith(t, Setup{Tracer: trace.New(sink)})
	})
	// The data plane is a representation choice, never a result: a full
	// run on materialized bytes must render the same output as the
	// symbolic default.
	withPerfRegime(t, true, true, 8, func() {
		bytesPlane = renderFullSetWith(t, Setup{Plane: mem.Bytes})
	})
	// A seed-only fault spec arms the injector without ever firing it: a
	// full run with injection attached but silent must render the seed
	// figures byte for byte (zero-rate decisions draw no randomness and
	// the recovery machinery stays dormant without fired faults).
	withPerfRegime(t, true, true, 8, func() {
		armedFaults = renderFullSetWith(t, Setup{Faults: faults.Spec{Seed: 1}})
	})
	if cachedSerial != coldSerial {
		t.Errorf("cached serial output differs from cold serial output")
	}
	if cachedParallel != coldSerial {
		t.Errorf("cached parallel-8 output differs from cold serial output")
	}
	if traced != coldSerial {
		t.Errorf("traced output differs from cold serial output")
	}
	if bytesPlane != coldSerial {
		t.Errorf("bytes-plane output differs from symbolic-plane output")
	}
	if armedFaults != coldSerial {
		t.Errorf("armed-but-silent fault injector perturbed the output")
	}
	if sink.n == 0 {
		t.Error("traced full set emitted no events")
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
	withPerfRegime(t, true, true, 4, func() {
		if _, err := Figure3(Setup{}); err != nil {
			t.Fatal(err)
		}
		misses := Perf().CacheMisses
		if _, err := Figure3Throughput(Setup{}); err != nil {
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
	withPerfRegime(t, false, true, 1, func() {
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
// measurement on a warm recycled testbed, memo off and recycling on, at
// every grid point: each input scheme, all eight semantics, aligned and
// at AppOffset 1000, 3000 and 61440 bytes. A recycled testbed keeps its
// frame free list, pool pages, page tables, object page slots, region
// lists and reference lists, port records and Process-API operation
// records; the symbolic plane gathers into stages and wire run lists
// the receiver hands back. What remains are the records callers keep,
// which stay fresh so that a stale one never aliases a live one: per
// host one Process, one AddressSpace, one chunk of Region records and
// one chunk of MemObject records, 8 in all. Outboard buffering adds a
// ninth, the sender's wire run list, which the adapter stages by
// reference and so never hands back. The parent of this gate made
// 20-27 (a fresh Input/Output record and its callbacks, reference and
// region lists, run lists and overlay and outboard records each time).
// A warm Testbed.Reset itself allocates nothing under any scheme.
func TestRecycledMeasureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	const maxAllocs = 10
	schemes := []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering}
	withPerfRegime(t, false, true, 1, func() {
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
