package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
)

// TestThroughputWireBoundAtOC3: at OC-3 every semantics sustains the
// effective link rate (~134 Mbps) — even copy, whose per-datagram CPU
// work fits inside the wire time.
func TestThroughputWireBoundAtOC3(t *testing.T) {
	s := Setup{Scheme: netsim.EarlyDemux}
	for _, sem := range core.AllSemantics() {
		r, err := Throughput(s, sem, 61440, 12)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if !almost(r.Mbps, 134, 2) {
			t.Errorf("%v: sustained %.0f Mbps at OC-3, want ~134 (wire bound)", sem, r.Mbps)
		}
		if r.Bottleneck != "wire" {
			t.Errorf("%v: bottleneck %q, want wire", sem, r.Bottleneck)
		}
	}
}

// TestThroughputCopyCPUBoundAtOC12: at OC-12 the wire time per 60 KB
// datagram (~916 us) dips below copy's receiver-side CPU work
// (~1.7 ms), so copy saturates the CPU while the other semantics still
// fill the pipe — the streaming counterpart of the paper's Section 8
// prediction.
func TestThroughputCopyCPUBoundAtOC12(t *testing.T) {
	model := cost.NewModel(cost.MicronP166, cost.CreditNetOC12)
	s := Setup{Model: model, Scheme: netsim.EarlyDemux}

	rCopy, err := Throughput(s, core.Copy, 61440, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rCopy.Bottleneck != "receiver CPU" {
		t.Errorf("copy bottleneck %q, want receiver CPU", rCopy.Bottleneck)
	}
	if rCopy.Mbps > 320 {
		t.Errorf("copy sustains %.0f Mbps at OC-12; should be CPU-capped near 295", rCopy.Mbps)
	}

	for _, sem := range []core.Semantics{core.EmulatedCopy, core.EmulatedShare, core.EmulatedMove} {
		r, err := Throughput(s, sem, 61440, 12)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if r.Bottleneck != "wire" {
			t.Errorf("%v: bottleneck %q, want wire", sem, r.Bottleneck)
		}
		if r.Mbps < rCopy.Mbps*1.6 {
			t.Errorf("%v sustains %.0f Mbps, not well above copy's %.0f", sem, r.Mbps, rCopy.Mbps)
		}
	}
}

// TestThroughputSingleDatagramUnchanged: CPU pipelining must not perturb
// single-datagram latency (start == arrival when the CPU is idle).
func TestThroughputSingleDatagramUnchanged(t *testing.T) {
	m, err := Measure(Setup{Scheme: netsim.EarlyDemux}, core.EmulatedCopy, 61440)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(m.LatencyUS, 0.0622*61440+152, 4) {
		t.Errorf("single-datagram latency %.1f us changed under CPU pipelining", m.LatencyUS)
	}
}

// TestThroughputErrors exercises the argument checks.
func TestThroughputErrors(t *testing.T) {
	if _, err := Throughput(Setup{}, core.Copy, 4096, 2); err == nil {
		t.Fatal("count=2 accepted")
	}
}
