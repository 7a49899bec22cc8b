package vm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// TestTCOWCopyOnPendingOutput is the central TCOW scenario (Section 5.1):
// an application overwrites its buffer while output is pending; the fault
// handler copies the page so the output keeps seeing the original data,
// and the application immediately sees its new data.
func TestTCOWCopyOnPendingOutput(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	orig := bytes.Repeat([]byte{0xA1}, 2*testPageSize)
	if err := as.Poke(r.Start(), orig); err != nil {
		t.Fatal(err)
	}

	// Emulated copy output prepare: reference + read-only.
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), 2*testPageSize, false); err != nil {
		t.Fatal(err)
	}
	as.RemoveWrite(r.Start(), 2*testPageSize)

	// Application overwrites the first page mid-output.
	if err := as.Poke(r.Start(), []byte{0xB2, 0xB2}); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().TCOWCopies != 1 {
		t.Fatalf("TCOW copies = %d, want 1", sys.Stats().TCOWCopies)
	}

	// The device still reads the original data through its references.
	out := make([]byte, 2*testPageSize)
	ref.DMARead(0, out)
	if !bytes.Equal(out, orig) {
		t.Fatal("pending output observed application overwrite (integrity violated)")
	}
	// The application sees its own new data.
	got := make([]byte, 2)
	if err := as.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xB2 {
		t.Fatal("application does not see its own write after TCOW")
	}

	// Output completes: the old frame (detached by the swap) is freed.
	free := sys.Phys().FreeFrames()
	ref.Unreference()
	if sys.Phys().FreeFrames() != free+1 {
		t.Fatal("TCOW-detached frame not freed at unreference")
	}
	checkAll(t, sys, as)
}

// TestTCOWReenableAfterOutput: if the output has already completed when
// the write fault arrives, no copy happens — write access is re-enabled.
func TestTCOWReenableAfterOutput(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	if err := as.Poke(r.Start(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), testPageSize, false); err != nil {
		t.Fatal(err)
	}
	as.RemoveWrite(r.Start(), testPageSize)
	ref.Unreference() // output completes before the app touches the page

	if err := as.Poke(r.Start(), []byte{2}); err != nil {
		t.Fatal(err)
	}
	s := sys.Stats()
	if s.TCOWReenables != 1 || s.TCOWCopies != 0 {
		t.Fatalf("reenables=%d copies=%d, want 1/0", s.TCOWReenables, s.TCOWCopies)
	}
	checkAll(t, sys, as)
}

// TestTCOWSecondOutputSamePage: two successive outputs of the same page
// with an overwrite between them.
func TestTCOWRepeatedOutputs(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	for round := 0; round < 3; round++ {
		payload := bytes.Repeat([]byte{byte(0x10 + round)}, testPageSize)
		if err := as.Poke(r.Start(), payload); err != nil {
			t.Fatal(err)
		}
		ref := new(IORef)
		if err := as.ReferenceRangeInto(ref, r.Start(), testPageSize, false); err != nil {
			t.Fatal(err)
		}
		as.RemoveWrite(r.Start(), testPageSize)
		// Overwrite mid-flight.
		if err := as.Poke(r.Start(), []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, testPageSize)
		ref.DMARead(0, out)
		if !bytes.Equal(out, payload) {
			t.Fatalf("round %d: output corrupted", round)
		}
		ref.Unreference()
	}
	if sys.Stats().TCOWCopies != 3 {
		t.Fatalf("TCOW copies = %d, want 3", sys.Stats().TCOWCopies)
	}
	checkAll(t, sys, as)
}

// TestShareSemanticsExposesOverwrite documents the weak-integrity
// behaviour TCOW exists to prevent: without write protection, an
// overwrite during output is visible to the device.
func TestShareSemanticsExposesOverwrite(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	if err := as.Poke(r.Start(), []byte("original")); err != nil {
		t.Fatal(err)
	}
	// Share output prepare: reference only, no RemoveWrite.
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), testPageSize, false); err != nil {
		t.Fatal(err)
	}
	if err := as.Poke(r.Start(), []byte("CLOBBER!")); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 8)
	ref.DMARead(0, out)
	if string(out) != "CLOBBER!" {
		t.Fatalf("share output read %q, expected to observe the overwrite", out)
	}
	ref.Unreference()
}

// TestConventionalCOW verifies the shadow-chain copy path and read
// sharing after CopyRegionCOW.
func TestConventionalCOW(t *testing.T) {
	sys := newTestSystem(16)
	src := sys.NewAddressSpace()
	dst := sys.NewAddressSpace()
	r := mustRegion(t, src, 2*testPageSize, Unmovable)
	if err := src.Poke(r.Start(), []byte("shared page data")); err != nil {
		t.Fatal(err)
	}
	allocsBefore := sys.Phys().Stats().Allocs

	nr, err := src.CopyRegionCOW(r.Start(), 2*testPageSize, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().COWRegionSetups != 1 {
		t.Fatal("COW setup not counted")
	}
	// Read from the copy: no physical copy yet.
	got := make([]byte, 16)
	if err := dst.Peek(nr.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared page data" {
		t.Fatalf("COW copy read %q", got)
	}
	if sys.Phys().Stats().Allocs != allocsBefore {
		t.Fatal("read of COW copy allocated frames")
	}

	// Write to the copy: private page, source unaffected.
	if err := dst.Poke(nr.Start(), []byte("DST")); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().COWCopies != 1 {
		t.Fatalf("COW copies = %d, want 1", sys.Stats().COWCopies)
	}
	srcGot := make([]byte, 16)
	if err := src.Peek(r.Start(), srcGot); err != nil {
		t.Fatal(err)
	}
	if string(srcGot) != "shared page data" {
		t.Fatalf("source saw destination write: %q", srcGot)
	}

	// Write to the source: also a COW fault (source was write-protected).
	if err := src.Poke(r.Start()+Addr(testPageSize), []byte("SRC2")); err != nil {
		t.Fatal(err)
	}
	dstGot := make([]byte, 4)
	if err := dst.Peek(nr.Start()+Addr(testPageSize), dstGot); err != nil {
		t.Fatal(err)
	}
	if string(dstGot) == "SRC2" {
		t.Fatal("destination saw source write after COW")
	}
	checkAll(t, sys, src)
	checkAll(t, sys, dst)
}

// TestInputDisabledCOW: a region with a pending in-place input must be
// copied physically, because COW would let the other process observe the
// DMA (Section 3.3).
func TestInputDisabledCOW(t *testing.T) {
	sys := newTestSystem(16)
	src := sys.NewAddressSpace()
	dst := sys.NewAddressSpace()
	r := mustRegion(t, src, testPageSize, Unmovable)
	if err := src.Poke(r.Start(), []byte("before input")); err != nil {
		t.Fatal(err)
	}

	// Pending in-place input on the source region.
	inref := new(IORef)
	if err := src.ReferenceRangeInto(inref, r.Start(), testPageSize, true); err != nil {
		t.Fatal(err)
	}

	nr, err := src.CopyRegionCOW(r.Start(), testPageSize, dst)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Stats().PhysRegionCopies != 1 {
		t.Fatal("input-disabled COW did not force a physical copy")
	}

	// DMA arrives into the source buffer; the copy must NOT see it.
	inref.DMAWrite(0, mem.BufBytes([]byte("AFTER INPUT!")))
	got := make([]byte, 12)
	if err := dst.Peek(nr.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "before input" {
		t.Fatalf("copy observed pending DMA input: %q (copy semantics violated)", got)
	}
	inref.Unreference()
	checkAll(t, sys, src)
	checkAll(t, sys, dst)
}

// TestCOWWithoutInputDisableWouldLeak demonstrates the hazard: with a
// plain COW chain in place, a DMA input into the shared origin page is
// visible through the copy. Genie's input ReferenceRangeInto prevents this
// by faulting a private writable copy first (the reverse case of
// Section 3.3).
func TestInputReferenceResolvesCOWFirst(t *testing.T) {
	sys := newTestSystem(16)
	src := sys.NewAddressSpace()
	dst := sys.NewAddressSpace()
	r := mustRegion(t, src, testPageSize, Unmovable)
	if err := src.Poke(r.Start(), []byte("origin")); err != nil {
		t.Fatal(err)
	}
	nr, err := src.CopyRegionCOW(r.Start(), testPageSize, dst)
	if err != nil {
		t.Fatal(err)
	}

	// Now the source posts an in-place input. Referencing for input
	// verifies write access, which resolves the COW into a private page.
	inref := new(IORef)
	if err := src.ReferenceRangeInto(inref, r.Start(), testPageSize, true); err != nil {
		t.Fatal(err)
	}
	inref.DMAWrite(0, mem.BufBytes([]byte("DMAED!")))
	inref.Unreference()

	got := make([]byte, 6)
	if err := dst.Peek(nr.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "origin" {
		t.Fatalf("COW sibling observed DMA input: %q", got)
	}
	srcGot := make([]byte, 6)
	if err := src.Peek(r.Start(), srcGot); err != nil {
		t.Fatal(err)
	}
	if string(srcGot) != "DMAED!" {
		t.Fatalf("input not visible to inputting process: %q", srcGot)
	}
	checkAll(t, sys, src)
	checkAll(t, sys, dst)
}

func TestWriteToUnmappedPageUnderOutputCopies(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	orig := bytes.Repeat([]byte{0xCD}, testPageSize)
	if err := as.Poke(r.Start(), orig); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), testPageSize, false); err != nil {
		t.Fatal(err)
	}
	// Invalidate the mapping entirely (as pageout would); then write.
	as.Invalidate(r.Start(), r.Len())
	if err := as.Poke(r.Start(), []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, testPageSize)
	ref.DMARead(0, out)
	if !bytes.Equal(out, orig) {
		t.Fatal("output corrupted by write through unmapped page")
	}
	ref.Unreference()
	checkAll(t, sys, as)
}
