package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// TestTransferUnderMemoryPressure runs transfers on hosts whose physical
// memory barely exceeds the working set: demand paging evicts cold pages
// and every datagram still arrives intact.
func TestTransferUnderMemoryPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KernelPoolPages = 20
	tb, err := NewTestbed(TestbedConfig{
		Buffering:     netsim.EarlyDemux,
		FramesPerHost: 36, // exactly the kernel pool + cold set: the hot path must evict
		Genie:         cfg,
		DemandPaging:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()

	const length = 4 * 4096
	// The sender holds several cold buffers, forcing pageouts when the
	// hot transfer path allocates.
	var cold []byte
	for i := 0; i < 8; i++ {
		va, err := sender.Brk(2 * 4096)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(0x10 + i)}, 2*4096)
		if err := sender.Write(va, data); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cold = data
		}
	}
	coldVA := vmAddrOfFirstRegion(sender)

	srcVA, err := sender.Brk(length)
	if err != nil {
		t.Fatal(err)
	}
	dstVA, err := receiver.Brk(length)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC4}, length)
	if err := sender.Write(srcVA, payload); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 4; round++ {
		for _, sem := range []Semantics{Copy, EmulatedCopy, EmulatedShare} {
			_, in, err := tb.Transfer(sender, receiver, 1, sem, srcVA, dstVA, length)
			if err != nil {
				t.Fatalf("round %d %v: %v", round, sem, err)
			}
			got := make([]byte, length)
			if err := receiver.Read(in.Addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("round %d %v: corrupted", round, sem)
			}
		}
	}
	if tb.A.Sys.Stats().PageOuts == 0 {
		t.Error("expected pageouts under memory pressure")
	}
	// The cold data survived its eviction.
	got := make([]byte, len(cold))
	if err := sender.Read(coldVA, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cold) {
		t.Error("cold data corrupted by demand paging")
	}
	if err := tb.A.Phys.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestWritePastMemory: without demand paging, writing more pages than
// a host has free frames fails with mem.ErrOutOfMemory; with it, the
// same write succeeds by paging out.
func TestWritePastMemory(t *testing.T) {
	for _, paging := range []bool{false, true} {
		tb, err := NewTestbed(TestbedConfig{FramesPerHost: 96, DemandPaging: paging})
		if err != nil {
			t.Fatal(err)
		}
		p := tb.A.Genie.NewProcess()
		pages := tb.A.Phys.FreeFrames() + 8
		va, err := p.Brk(pages * 4096)
		if err != nil {
			t.Fatal(err)
		}
		err = p.Write(va, make([]byte, pages*4096))
		switch {
		case paging && err != nil:
			t.Errorf("write of %d pages under demand paging: %v", pages, err)
		case !paging && !errors.Is(err, mem.ErrOutOfMemory):
			t.Errorf("write of %d pages without demand paging: err = %v, want ErrOutOfMemory", pages, err)
		}
	}
}

// vmAddrOfFirstRegion returns the start of the process's first region.
func vmAddrOfFirstRegion(p *Process) vm.Addr {
	return p.Space().Regions()[0].Start()
}
