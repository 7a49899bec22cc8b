package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// runResetTransfer performs one measured transfer on an existing
// testbed (fresh or Reset) and returns the end-to-end latency and the
// engine step count for the run. It fails the test on any transfer or
// integrity error.
func runResetTransfer(t *testing.T, tb *Testbed, sem Semantics, length int) (latencyUS float64, steps uint64) {
	t.Helper()
	startSteps := tb.Eng.Steps()
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	tb.A.Genie.Instr().Enabled = true
	tb.B.Genie.Instr().Enabled = true

	payload := make([]byte, length)
	for i := range payload {
		payload[i] = byte(i*13 + 7)
	}
	ps := tb.Model.Platform.PageSize
	var srcVA, dstVA vm.Addr
	if sem.SystemAllocated() {
		r, err := sender.AllocIOBuffer(length)
		if err != nil {
			t.Fatal(err)
		}
		srcVA = r.Start()
	} else {
		va, err := sender.Brk(length + 2*ps)
		if err != nil {
			t.Fatal(err)
		}
		srcVA = va
		dva, err := receiver.Brk(length + 2*ps)
		if err != nil {
			t.Fatal(err)
		}
		dstVA = dva
	}
	if err := sender.Write(srcVA, payload); err != nil {
		t.Fatal(err)
	}
	out, in, err := tb.Transfer(sender, receiver, 1, sem, srcVA, dstVA, length)
	if err != nil {
		t.Fatalf("%v transfer: %v", sem, err)
	}
	got := make([]byte, in.N)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("%v: corrupt byte %d after transfer", sem, i)
		}
	}
	return in.CompletedAt.Sub(out.StartedAt).Micros(), tb.Eng.Steps() - startSteps
}

// checkPristine asserts every observable of the testbed matches the
// given freshly built reference: engine rewound, stats zeroed,
// instrumentation off and empty, free lists full, and memory
// invariants intact.
func checkPristine(t *testing.T, tb, fresh *Testbed) {
	t.Helper()
	if now := tb.Eng.Now(); now != 0 {
		t.Errorf("engine clock = %v after Reset, want 0", now)
	}
	if n := tb.Eng.Pending(); n != 0 {
		t.Errorf("engine has %d pending events after Reset", n)
	}
	if s := tb.Eng.Steps(); s != 0 {
		t.Errorf("engine steps = %d after Reset, want 0", s)
	}
	hosts := []struct {
		name      string
		tb, fresh *Host
	}{{"A", tb.A, fresh.A}, {"B", tb.B, fresh.B}}
	for _, h := range hosts {
		if err := h.tb.Phys.CheckInvariants(); err != nil {
			t.Errorf("host %s memory invariants after Reset: %v", h.name, err)
		}
		if got, want := h.tb.Phys.FreeFrames(), h.fresh.Phys.FreeFrames(); got != want {
			t.Errorf("host %s free frames = %d after Reset, fresh testbed has %d", h.name, got, want)
		}
		if got := h.tb.Sys.Stats(); got != h.fresh.Sys.Stats() {
			t.Errorf("host %s VM stats = %+v after Reset, fresh testbed has %+v", h.name, got, h.fresh.Sys.Stats())
		}
		if n := len(h.tb.Sys.Spaces()); n != 0 {
			t.Errorf("host %s has %d live address spaces after Reset", h.name, n)
		}
		if got := h.tb.Genie.Stats(); got != (Stats{}) {
			t.Errorf("host %s Genie stats = %+v after Reset, want zero", h.name, got)
		}
		if got := h.tb.NIC.Stats(); got != (netsim.Stats{}) {
			t.Errorf("host %s NIC stats = %+v after Reset, want zero", h.name, got)
		}
		if h.tb.Genie.Instr().Enabled {
			t.Errorf("host %s instrumentation still enabled after Reset", h.name)
		}
		if n := len(h.tb.Genie.Instr().Records()); n != 0 {
			t.Errorf("host %s instrumentation holds %d records after Reset", h.name, n)
		}
		if pool := h.tb.NIC.Pool(); pool != nil {
			if pool.Free() != pool.Total() {
				t.Errorf("host %s overlay pool %d/%d free after Reset", h.name, pool.Free(), pool.Total())
			}
		}
	}
}

// TestTestbedResetNoLeakage runs a transfer, Resets, and checks that
// (a) every observable matches a freshly built testbed and (b) the same
// transfer replayed on the Reset testbed is bit-identical — same
// latency, same number of simulation steps — to both its own first run
// and a fresh testbed's run. Any state leaking through Reset (frames,
// free-list order, engine queue, instrumentation, stats) breaks one of
// the two.
func TestTestbedResetNoLeakage(t *testing.T) {
	const length = 5 * 4096
	schemes := []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := TestbedConfig{Buffering: scheme, OverlayOff: 128}
			tb, err := NewTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}

			for _, sem := range []Semantics{Copy, Share, Move} {
				lat1, steps1 := runResetTransfer(t, tb, sem, length)
				if err := tb.Reset(); err != nil {
					t.Fatalf("%v: Reset: %v", sem, err)
				}
				checkPristine(t, tb, fresh)

				lat2, steps2 := runResetTransfer(t, tb, sem, length)
				if lat2 != lat1 {
					t.Errorf("%v: latency %.3f us on recycled testbed, %.3f us on first run", sem, lat2, lat1)
				}
				if steps2 != steps1 {
					t.Errorf("%v: %d engine steps on recycled testbed, %d on first run", sem, steps2, steps1)
				}
				latF, stepsF := runResetTransfer(t, fresh, sem, length)
				if lat2 != latF || steps2 != stepsF {
					t.Errorf("%v: recycled testbed ran %.3f us / %d steps, fresh testbed %.3f us / %d steps",
						sem, lat2, steps2, latF, stepsF)
				}
				if err := tb.Reset(); err != nil {
					t.Fatalf("%v: second Reset: %v", sem, err)
				}
				fresh, err = NewTestbed(cfg)
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTestbedReset times Reset of an idle symbolic testbed under
// early demux and pooled input buffering: the fixed cost a recycled
// measurement pays before it simulates anything.
func BenchmarkTestbedReset(b *testing.B) {
	for _, scheme := range []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled} {
		b.Run(scheme.String(), func(b *testing.B) {
			tb, err := NewTestbed(TestbedConfig{Buffering: scheme, Plane: mem.Symbolic})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tb.Reset(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
