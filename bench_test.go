package repro

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Each benchmark regenerates its
// experiment on the simulated testbed and reports the reproduced
// headline quantity as a custom metric (simulated microseconds, Mbps, or
// utilization), so `go test -bench=.` doubles as the reproduction run.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchSemantics runs one transfer per iteration and reports the
// simulated end-to-end latency and equivalent throughput.
func benchSemantics(b *testing.B, s experiments.Setup, sem core.Semantics, bytes int) {
	b.Helper()
	var last experiments.Measurement
	for i := 0; i < b.N; i++ {
		m, err := experiments.Measure(s, sem, bytes)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(last.LatencyUS, "sim-us")
	b.ReportMetric(last.ThroughputMbps(), "sim-Mbps")
}

// BenchmarkFigure3 regenerates the early-demultiplexing latency points
// at 60 KB for every semantics (Figure 3's right edge, where the paper
// quotes throughputs).
func BenchmarkFigure3(b *testing.B) {
	for _, sem := range core.AllSemantics() {
		b.Run(sem.String(), func(b *testing.B) {
			benchSemantics(b, experiments.Setup{Scheme: netsim.EarlyDemux}, sem, 61440)
		})
	}
}

// BenchmarkFigure4 regenerates the CPU utilization measurement.
func BenchmarkFigure4(b *testing.B) {
	for _, sem := range core.AllSemantics() {
		b.Run(sem.String(), func(b *testing.B) {
			s := experiments.Setup{Scheme: netsim.EarlyDemux}
			var last experiments.Measurement
			for i := 0; i < b.N; i++ {
				m, err := experiments.Measure(s, sem, 61440)
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(last.Utilization()*100, "sim-util-%")
		})
	}
}

// BenchmarkFigure5 regenerates the short-datagram anchors: copy at its
// minimum, and the half-page comparison between emulated copy and
// emulated share.
func BenchmarkFigure5(b *testing.B) {
	cases := []struct {
		name  string
		sem   core.Semantics
		bytes int
	}{
		{"copy-64B", core.Copy, 64},
		{"emulated-copy-2KB", core.EmulatedCopy, 2048},
		{"emulated-share-2KB", core.EmulatedShare, 2048},
		{"emulated-copy-3KB-reverse-copyout", core.EmulatedCopy, 3000},
		{"move-64B-zeroing", core.Move, 64},
		{"emulated-move-64B-region-hiding", core.EmulatedMove, 64},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchSemantics(b, experiments.Setup{Scheme: netsim.EarlyDemux}, c.sem, c.bytes)
		})
	}
}

// BenchmarkFigure6 regenerates the pooled, application-aligned points.
func BenchmarkFigure6(b *testing.B) {
	for _, sem := range core.AllSemantics() {
		b.Run(sem.String(), func(b *testing.B) {
			benchSemantics(b, experiments.Setup{Scheme: netsim.Pooled}, sem, 61440)
		})
	}
}

// BenchmarkFigure7 regenerates the pooled, unaligned points: the
// three-band split (no copies / one copy / two copies).
func BenchmarkFigure7(b *testing.B) {
	for _, sem := range core.AllSemantics() {
		b.Run(sem.String(), func(b *testing.B) {
			benchSemantics(b, experiments.Setup{Scheme: netsim.Pooled, AppOffset: 1000}, sem, 61440)
		})
	}
}

// BenchmarkFigureOutboard regenerates the predicted outboard points the
// paper could not measure.
func BenchmarkFigureOutboard(b *testing.B) {
	for _, sem := range []core.Semantics{core.Copy, core.EmulatedCopy, core.EmulatedShare, core.Move} {
		b.Run(sem.String(), func(b *testing.B) {
			benchSemantics(b, experiments.Setup{Scheme: netsim.OutboardBuffering}, sem, 61440)
		})
	}
}

// BenchmarkExperiments regenerates every registered figure, table and
// ablation from the zero Setup, one sub-benchmark each
// (BenchmarkExperiments/Table_6, BenchmarkExperiments/Ablation:_wiring,
// ...).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Setup{}, experiments.Runner{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOC12 regenerates the Section 8 extrapolation and reports the
// predicted emulated-copy throughput (the paper's headline: almost 3x
// copy semantics).
func BenchmarkOC12(b *testing.B) {
	model := cost.NewModel(cost.MicronP166, cost.CreditNetOC12)
	for _, sem := range []core.Semantics{core.Copy, core.EmulatedCopy, core.EmulatedShare, core.Move} {
		b.Run(sem.String(), func(b *testing.B) {
			benchSemantics(b, experiments.Setup{Model: model, Scheme: netsim.EarlyDemux}, sem, 61440)
		})
	}
}

// Performance of the reproduction itself: the following benchmarks time
// the harness, not the simulated hardware. BenchmarkSweepSerial and
// BenchmarkSweepParallel regenerate the same Figure 3 sweep (8 semantics
// × 15 page-multiple lengths, one testbed per point) with the worker
// pool pinned to 1 worker versus GOMAXPROCS; on a 4+ core machine the
// parallel run should be at least 2x faster, and its output is
// byte-identical (see TestParallelMatchesSerialFigure3).

func benchSweep(b *testing.B, workers int) {
	b.Helper()
	defer experiments.ResetPerf()
	r := experiments.Runner{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Start each iteration from a cold cache and empty free lists so
		// the benchmark measures the simulation fan-out, not memo lookups.
		experiments.ResetPerf()
		if _, err := experiments.Figure3(experiments.Setup{}, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkMeasureColdVsRecycled isolates the testbed-recycling layer:
// "cold" empties the recycler (experiments.ResetPerf, off the clock)
// before every point, so each builds a fresh two-host testbed;
// "recycled" Resets and reuses one from the free list. The memo is off
// in both arms so each iteration really simulates.
func BenchmarkMeasureColdVsRecycled(b *testing.B) {
	s := experiments.Setup{Scheme: netsim.EarlyDemux}
	for _, arm := range []struct {
		name string
		cold bool
	}{{"cold", true}, {"recycled", false}} {
		b.Run(arm.name, func(b *testing.B) {
			defer experiments.SetMemo(experiments.SetMemo(false))
			defer experiments.ResetPerf()
			experiments.ResetPerf()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if arm.cold {
					b.StopTimer()
					experiments.ResetPerf()
					b.StartTimer()
				}
				if _, err := experiments.Measure(s, core.EmulatedCopy, 61440); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullRunCachedVsUncached times one full geniebench evaluation
// — every figure, table, and ablation — with the measurement memo on
// versus off; testbeds are recycled in both arms. Each iteration starts
// from a cold memo and empty free lists, so "cached" measures a
// complete run including its misses; the gap between the arms is the
// redundant simulation the memo removes.
func BenchmarkFullRunCachedVsUncached(b *testing.B) {
	fullRun := func(b *testing.B) {
		b.Helper()
		for _, e := range experiments.Experiments {
			if _, err := e.Run(experiments.Setup{}, experiments.Runner{}); err != nil {
				b.Fatalf("%s: %v", e.Name, err)
			}
		}
	}
	for _, arm := range []struct {
		name string
		on   bool
	}{{"uncached", false}, {"cached", true}} {
		b.Run(arm.name, func(b *testing.B) {
			defer experiments.SetMemo(experiments.SetMemo(arm.on))
			defer experiments.ResetPerf()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				experiments.ResetPerf()
				fullRun(b)
			}
		})
	}
}

// BenchmarkMeasureAllocs reports heap allocations per measurement point:
// the simulator's event free list and the harness's recycled
// payload/verify buffers keep the per-point allocation count flat in the
// datagram length.
func BenchmarkMeasureAllocs(b *testing.B) {
	s := experiments.Setup{Scheme: netsim.EarlyDemux}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Measure(s, core.EmulatedCopy, 61440); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracingOverhead compares one real (uncached, recycled)
// measurement point with tracing off versus on, the overhead guarantee
// of the observability facade: "off" must stay at the untraced cost (no
// allocations from tracing, branch-only guards), "on" pays only for
// event emission into a cheap sink.
func BenchmarkTracingOverhead(b *testing.B) {
	for _, arm := range []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"off", nil},
		{"on", trace.New(discardSink{})},
	} {
		b.Run(arm.name, func(b *testing.B) {
			memoWas := experiments.SetMemo(false)
			defer func() {
				experiments.SetMemo(memoWas)
				experiments.ResetPerf()
			}()
			experiments.ResetPerf()
			s := experiments.Setup{Scheme: netsim.EarlyDemux, Tracer: arm.tracer}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Measure(s, core.EmulatedCopy, 61440); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// discardSink drops every event; it isolates emission cost from sink cost.
type discardSink struct{}

func (discardSink) Emit(trace.Event) {}

// BenchmarkSweepSymbolicVsBytes compares one full Figure 3 page sweep
// (every page-multiple length up to the 60 KB AAL5 maximum) on the two
// data planes, caching off so every point really simulates. The bytes
// arm materializes and copies every payload page through the copyin,
// DMA, and copyout stages; the symbolic arm moves O(#extents)
// provenance descriptors through the same control flow. The figures are
// byte-identical between the arms — the gap is pure simulator overhead
// removed.
func BenchmarkSweepSymbolicVsBytes(b *testing.B) {
	lengths := experiments.PageSweep(4096)
	for _, arm := range []struct {
		name  string
		plane mem.DataPlane
	}{{"bytes", mem.Bytes}, {"symbolic", mem.Symbolic}} {
		b.Run(arm.name, func(b *testing.B) {
			memoWas := experiments.SetMemo(false)
			defer func() {
				experiments.SetMemo(memoWas)
				experiments.ResetPerf()
			}()
			experiments.ResetPerf()
			s := experiments.Setup{Scheme: netsim.EarlyDemux, Plane: arm.plane}
			var probes []experiments.Probe
			for _, n := range lengths {
				probes = append(probes, experiments.Probe{Setup: s, Sem: core.Copy, Bytes: n})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (experiments.Runner{}).MeasureAll(probes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSymbolicPlaneFasterAtMaxDatagram is the CI performance smoke: the
// symbolic plane must beat the bytes plane on the max-datagram sweep
// point with caching disabled. The margin is deliberately loose (1.2x
// against a locally measured ~2x+) so the gate trips on a real
// regression — symbolic accidentally materializing — and not on a noisy
// runner.
func TestSymbolicPlaneFasterAtMaxDatagram(t *testing.T) {
	if testing.Short() {
		t.Skip("timed comparison in -short mode")
	}
	memoWas := experiments.SetMemo(false)
	defer func() {
		experiments.SetMemo(memoWas)
		experiments.ResetPerf()
	}()
	timePlane := func(plane mem.DataPlane) float64 {
		experiments.ResetPerf()
		s := experiments.Setup{Scheme: netsim.EarlyDemux, Plane: plane}
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Measure(s, core.Copy, cost.MaxAAL5Datagram); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.NsPerOp())
	}
	bytesNs := timePlane(mem.Bytes)
	symNs := timePlane(mem.Symbolic)
	t.Logf("max-datagram point: bytes %.0f ns/op, symbolic %.0f ns/op (%.2fx)",
		bytesNs, symNs, bytesNs/symNs)
	if symNs*1.2 >= bytesNs {
		t.Errorf("symbolic plane is not faster than bytes at the max datagram: %.0f ns/op vs %.0f ns/op",
			symNs, bytesNs)
	}
}

// BenchmarkEngineScheduleLoop exercises the simulator's schedule/fire
// hot path through the public API; the event pool keeps it at zero
// allocs/op in steady state (see also internal/sim's
// BenchmarkEngineSchedule).
func BenchmarkEngineScheduleLoop(b *testing.B) {
	e := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Step()
	}
}

// BenchmarkThroughput measures sustained streaming throughput — the
// extension that shows copy semantics becoming receiver-CPU-bound at
// OC-12 while every other semantics fills the pipe.
func BenchmarkThroughput(b *testing.B) {
	nets := []cost.Network{cost.CreditNetOC3, cost.CreditNetOC12}
	sems := []core.Semantics{core.Copy, core.EmulatedCopy, core.EmulatedShare}
	for _, net := range nets {
		model := cost.NewModel(cost.MicronP166, net)
		for _, sem := range sems {
			b.Run(net.Name+"/"+sem.String(), func(b *testing.B) {
				var last experiments.ThroughputResult
				for i := 0; i < b.N; i++ {
					r, err := experiments.Throughput(
						experiments.Setup{Model: model, Scheme: netsim.EarlyDemux}, sem, 61440, 12)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(last.Mbps, "sim-Mbps")
			})
		}
	}
}
