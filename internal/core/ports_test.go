package core

import (
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
)

// TestPortRecordsHighAndMany posts on a port near 1<<20 and on 1,000
// ports at once. Ports are looked up, not indexed: a transfer on the
// high port must deliver, making its port records must cost about what
// a low port's cost (a table indexed by port would take megabytes),
// 1,000 ports must each keep their own queue, and a Reset must empty
// every one of them while keeping the records.
func TestPortRecordsHighAndMany(t *testing.T) {
	const (
		high  = 1<<20 - 3
		many  = 1000
		bytes = 200
	)
	cfg := TestbedConfig{Buffering: netsim.EarlyDemux, Plane: mem.Symbolic}

	// transferOn runs one transfer on port of a fresh testbed and
	// returns the bytes its posting and delivery allocated.
	transferOn := func(port int) uint64 {
		tb, err := NewTestbed(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sender, receiver := tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess()
		src, err := sender.Brk(bytes)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := receiver.Brk(bytes)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, in, err := tb.Transfer(sender, receiver, port, Copy, src, dst, bytes)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("port %d: %v", port, err)
		}
		if in.N != bytes || in.Port != port {
			t.Fatalf("port %d: delivered %d bytes on port %d", port, in.N, in.Port)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	low, hi := transferOn(1), transferOn(high)
	if !raceEnabled && hi > low+4096 {
		t.Errorf("a transfer on port %d allocated %d bytes, on port 1 %d: port records grow with the port number", high, hi, low)
	}

	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		receiver := tb.B.Genie.NewProcess()
		dst, err := receiver.Brk(bytes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range many {
			port := i * (high / many)
			if _, err := receiver.Input(port, EmulatedShare, dst, bytes); err != nil {
				t.Fatalf("round %d port %d: %v", round, port, err)
			}
		}
		for i := range many {
			port := i * (high / many)
			if g, n := tb.B.Genie.PostedInputs(port), tb.B.NIC.PostedInputs(port); g != 1 || n != 1 {
				t.Fatalf("round %d port %d: %d inputs queued and %d buffers posted, want 1 and 1", round, port, g, n)
			}
		}
		if got := len(tb.B.NIC.Ports()); got != many {
			t.Fatalf("round %d: the adapter keeps %d port records for %d ports", round, got, many)
		}
		if err := tb.Reset(); err != nil {
			t.Fatal(err)
		}
		for i := range many {
			port := i * (high / many)
			if g, n := tb.B.Genie.PostedInputs(port), tb.B.NIC.PostedInputs(port); g != 0 || n != 0 {
				t.Fatalf("round %d port %d after Reset: %d inputs queued and %d buffers posted", round, port, g, n)
			}
		}
	}
}
