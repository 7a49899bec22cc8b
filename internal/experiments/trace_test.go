package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// TestTracedRunMatchesUntraced asserts tracing is a pure observer: the
// measurement of a traced run is identical to the untraced (and cached)
// one, even though the traced run bypasses the memo and re-simulates.
func TestTracedRunMatchesUntraced(t *testing.T) {
	s := Setup{Scheme: netsim.EarlyDemux}
	plain, err := Measure(s, core.EmulatedCopy, 61440)
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(1 << 14)
	s.Tracer = trace.New(ring)
	traced, err := Measure(s, core.EmulatedCopy, 61440)
	if err != nil {
		t.Fatal(err)
	}
	if traced.LatencyUS != plain.LatencyUS || traced.RxCPUUS != plain.RxCPUUS || traced.TxCPUUS != plain.TxCPUUS {
		t.Errorf("traced measurement differs: %+v vs %+v", traced, plain)
	}
	if ring.Total() == 0 {
		t.Fatal("traced run emitted no events")
	}
}

// TestSpanSumsMatchMeasuredLatency is the self-consistency check: for an
// emulated-copy 60 KB transfer under early demultiplexing, the summed
// durations of the critical-path spans — sender prepare, wire
// serialization, fixed delivery, receiver dispose — must equal the
// end-to-end latency Measure reports. The trace and the measurement are
// two views of the same simulation and must not drift apart.
func TestSpanSumsMatchMeasuredLatency(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	s := Setup{Scheme: netsim.EarlyDemux, Tracer: trace.New(ring)}
	m, err := Measure(s, core.EmulatedCopy, 61440)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	seen := map[string]int{}
	for _, ev := range ring.Events() {
		if ev.Phase != trace.Complete {
			continue
		}
		switch ev.Name {
		case "output.prepare", "net.tx", "net.deliver", "input.dispose":
			sum += ev.Dur.Micros()
			seen[ev.Name]++
		}
	}
	for _, name := range []string{"output.prepare", "net.tx", "net.deliver", "input.dispose"} {
		if seen[name] != 1 {
			t.Errorf("critical-path span %q seen %d times, want exactly 1", name, seen[name])
		}
	}
	if diff := math.Abs(sum - m.LatencyUS); diff > 1e-6 {
		t.Errorf("critical-path span sum %.6f us != measured latency %.6f us (diff %g)",
			sum, m.LatencyUS, diff)
	}
}

// TestTracedRunEmitsAllLayers asserts the event stream spans every
// instrumented subsystem for a transfer that exercises them: a pooled
// move transfer touches the overlay pool, region transitions, and the
// operation charges.
func TestTracedRunEmitsAllLayers(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	s := Setup{Scheme: netsim.Pooled, Tracer: trace.New(ring)}
	if _, err := Measure(s, core.EmulatedMove, 16384); err != nil {
		t.Fatal(err)
	}
	cats := map[trace.Category]int{}
	hosts := map[string]bool{}
	for _, ev := range ring.Events() {
		cats[ev.Cat]++
		hosts[ev.Host] = true
	}
	for _, cat := range []trace.Category{trace.CatOp, trace.CatVM, trace.CatNet} {
		if cats[cat] == 0 {
			t.Errorf("no %v events in a pooled emulated-move transfer", cat)
		}
	}
	if !hosts["hostA"] || !hosts["hostB"] {
		t.Errorf("events missing a host: %v", hosts)
	}
}

// TestTracerDetachedOnRecycledTestbed asserts a recycled testbed does
// not leak events from a previous traced point into a later untraced
// one: after a traced Measure, an untraced Measure on the recycled
// testbed must emit nothing.
func TestTracerDetachedOnRecycledTestbed(t *testing.T) {
	withPerfRegime(t, false, func() {
		ring := trace.NewRing(256)
		traced := Setup{Scheme: netsim.EarlyDemux, Tracer: trace.New(ring)}
		if _, err := Measure(traced, core.Share, 8192); err != nil {
			t.Fatal(err)
		}
		before := ring.Total()
		if before == 0 {
			t.Fatal("traced point emitted no events")
		}
		if _, err := Measure(Setup{Scheme: netsim.EarlyDemux}, core.Share, 8192); err != nil {
			t.Fatal(err)
		}
		if got := ring.Total(); got != before {
			t.Errorf("untraced point on recycled testbed emitted %d events", got-before)
		}
	})
}
