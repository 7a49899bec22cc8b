package vm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

func TestForkIdentityAddresses(t *testing.T) {
	sys := newTestSystem(64)
	parent := sys.NewAddressSpace()
	heap := mustRegion(t, parent, 3*testPageSize, Unmovable)
	iobuf := mustRegion(t, parent, 2*testPageSize, MovedIn)
	if err := parent.Poke(heap.Start(), []byte("heap data")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Poke(iobuf.Start(), []byte("io data")); err != nil {
		t.Fatal(err)
	}

	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Same addresses, same data, same region states.
	got := make([]byte, 9)
	if err := child.Peek(heap.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "heap data" {
		t.Fatalf("child heap = %q", got)
	}
	if err := child.Peek(iobuf.Start(), got[:7]); err != nil {
		t.Fatal(err)
	}
	if string(got[:7]) != "io data" {
		t.Fatalf("child iobuf = %q", got[:7])
	}
	cr := child.FindRegion(iobuf.Start())
	if cr == nil || cr.State() != MovedIn {
		t.Fatalf("child I/O region state: %v", cr)
	}
	// Isolation both ways.
	if err := child.Poke(heap.Start(), []byte("CHILD")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Peek(heap.Start(), got[:5]); err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) == "CHILD" {
		t.Fatal("parent observed child write")
	}
	if err := parent.Poke(heap.Start()+Addr(testPageSize), []byte("PARENT")); err != nil {
		t.Fatal(err)
	}
	if err := child.Peek(heap.Start()+Addr(testPageSize), got[:6]); err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) == "PARENT" {
		t.Fatal("child observed parent write")
	}
	checkAll(t, sys, parent)
	checkAll(t, sys, child)
}

func TestForkSkipsHiddenRegions(t *testing.T) {
	sys := newTestSystem(32)
	parent := sys.NewAddressSpace()
	r := mustRegion(t, parent, testPageSize, MovedIn)
	if err := r.MarkMovingOut(); err != nil {
		t.Fatal(err)
	}
	parent.Invalidate(r.Start(), r.Len())
	if err := r.MarkMovedOut(); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if child.FindRegion(r.Start()) != nil {
		t.Fatal("hidden region inherited by fork")
	}
}

// TestForkDuringPendingOutput: the parent has TCOW-protected output
// pages; the fork layers conventional COW on top. Both the output and
// both processes' views stay correct under subsequent writes.
func TestForkDuringPendingOutput(t *testing.T) {
	sys := newTestSystem(64)
	parent := sys.NewAddressSpace()
	r := mustRegion(t, parent, testPageSize, Unmovable)
	orig := bytes.Repeat([]byte{0xAB}, testPageSize)
	if err := parent.Poke(r.Start(), orig); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := parent.ReferenceRangeInto(ref, r.Start(), testPageSize, false); err != nil {
		t.Fatal(err)
	}
	parent.RemoveWrite(r.Start(), testPageSize)

	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Parent overwrites mid-output, then child writes too.
	if err := parent.Poke(r.Start(), []byte{0x01}); err != nil {
		t.Fatal(err)
	}
	if err := child.Poke(r.Start(), []byte{0x02}); err != nil {
		t.Fatal(err)
	}
	// The device still reads the original bytes.
	out := make([]byte, testPageSize)
	ref.DMARead(0, out)
	if !bytes.Equal(out, orig) {
		t.Fatal("output corrupted by writes after fork")
	}
	b := make([]byte, 1)
	if err := parent.Peek(r.Start(), b); err != nil || b[0] != 0x01 {
		t.Fatalf("parent view: %v %#x", err, b[0])
	}
	if err := child.Peek(r.Start(), b); err != nil || b[0] != 0x02 {
		t.Fatalf("child view: %v %#x", err, b[0])
	}
	ref.Unreference()
	checkAll(t, sys, parent)
	checkAll(t, sys, child)
}

// TestForkDuringPendingInput: input-disabled COW forces the fork to copy
// the inputting region physically, so the child never observes the DMA.
func TestForkDuringPendingInput(t *testing.T) {
	sys := newTestSystem(64)
	parent := sys.NewAddressSpace()
	r := mustRegion(t, parent, testPageSize, Unmovable)
	if err := parent.Poke(r.Start(), []byte("pre-input")); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := parent.ReferenceRangeInto(ref, r.Start(), testPageSize, true); err != nil {
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().PhysRegionCopies == 0 {
		t.Fatal("fork of inputting region did not copy physically")
	}
	ref.DMAWrite(0, mem.BufBytes([]byte("DMA-DATA!")))
	ref.Unreference()
	got := make([]byte, 9)
	if err := child.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "pre-input" {
		t.Fatalf("child observed DMA after fork: %q", got)
	}
}
