package vm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem"
)

func TestReferenceRangeExtents(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 4*testPageSize, Unmovable)

	// Unaligned start, crossing three pages.
	va := r.Start() + 300
	length := 2*testPageSize + 100
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, va, length, false); err != nil {
		t.Fatal(err)
	}
	defer ref.Unreference()

	if ref.Len() != length {
		t.Fatalf("extents cover %d bytes, want %d", ref.Len(), length)
	}
	if ref.Pages() != 3 {
		t.Fatalf("pages = %d, want 3", ref.Pages())
	}
	ext := ref.Extents()
	if ext[0].Off != 300 || ext[0].Len != testPageSize-300 {
		t.Fatalf("first extent = %+v", ext[0])
	}
	if ext[1].Off != 0 || ext[1].Len != testPageSize {
		t.Fatalf("middle extent = %+v", ext[1])
	}
	if ext[2].Off != 0 || ext[2].Len != 400 {
		t.Fatalf("last extent = %+v", ext[2])
	}
}

func TestReferenceCounts(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	out := new(IORef)
	if err := as.ReferenceRangeInto(out, r.Start(), 2*testPageSize, false); err != nil {
		t.Fatal(err)
	}
	in := new(IORef)
	if err := as.ReferenceRangeInto(in, r.Start(), testPageSize, true); err != nil {
		t.Fatal(err)
	}
	f0, _ := as.PTEAt(r.Start())
	f1, _ := as.PTEAt(r.Start() + Addr(testPageSize))
	if f0.Frame.OutRefs() != 1 || f0.Frame.InRefs() != 1 {
		t.Fatalf("page 0 refs = out %d in %d", f0.Frame.OutRefs(), f0.Frame.InRefs())
	}
	if f1.Frame.OutRefs() != 1 || f1.Frame.InRefs() != 0 {
		t.Fatalf("page 1 refs = out %d in %d", f1.Frame.OutRefs(), f1.Frame.InRefs())
	}
	if r.Object().InputRefs() != 1 {
		t.Fatalf("object input refs = %d, want 1", r.Object().InputRefs())
	}
	in.Unreference()
	if r.Object().InputRefs() != 0 {
		t.Fatal("object input refs not dropped")
	}
	out.Unreference()
	if f0.Frame.Referenced() || f1.Frame.Referenced() {
		t.Fatal("frames still referenced after unreference")
	}
	// Idempotent.
	out.Unreference()
	checkAll(t, sys, as)
}

func TestReferenceRangeFaultsInPages(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	// No pages are resident yet; referencing must fault them in.
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), 2*testPageSize, true); err != nil {
		t.Fatal(err)
	}
	defer ref.Unreference()
	if r.Object().ResidentPages() != 2 {
		t.Fatalf("resident pages = %d, want 2", r.Object().ResidentPages())
	}
}

func TestReferenceRangeRejectsHiddenRegion(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, MovedIn)
	if err := r.MarkMovingOut(); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkMovedOut(); err != nil {
		t.Fatal(err)
	}
	if err := as.ReferenceRangeInto(new(IORef), r.Start(), testPageSize, false); !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
}

func TestReferenceRangeRollbackOnError(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	// Range extends past the region into unmapped space.
	if err := as.ReferenceRangeInto(new(IORef), r.Start(), 2*testPageSize, true); err == nil {
		t.Fatal("reference of partly unmapped range succeeded")
	}
	f, _ := as.PTEAt(r.Start())
	if f.Frame != nil && f.Frame.Referenced() {
		t.Fatal("rollback left references behind")
	}
	if r.Object().InputRefs() != 0 {
		t.Fatal("rollback left object input refs behind")
	}
}

func TestReferenceRegionForMoveReuse(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, MovedIn)
	if err := as.Poke(r.Start(), []byte("old contents")); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkMovingOut(); err != nil {
		t.Fatal(err)
	}
	as.Invalidate(r.Start(), r.Len())
	if err := r.MarkMovedOut(); err != nil {
		t.Fatal(err)
	}

	// Input reuse: the region is hidden, but the kernel can still
	// reference its pages for DMA.
	got := as.DequeueCached(2*testPageSize, false)
	if got != r {
		t.Fatal("cached region not found")
	}
	if err := r.MarkMovingIn(); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := as.ReferenceRegionInto(ref, r, 2*testPageSize, true); err != nil {
		t.Fatal(err)
	}
	ref.DMAWrite(0, mem.BufBytes([]byte("new datagram")))
	ref.Unreference()
	as.Reinstate(r)
	if err := r.MarkMovedIn(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	if err := as.Peek(r.Start(), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "new datagram" {
		t.Fatalf("reused region data = %q", buf)
	}
	checkAll(t, sys, as)
}

func TestDMAWriteReadOffsets(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 3*testPageSize, Unmovable)
	va := r.Start() + 100
	length := 2 * testPageSize
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, va, length, true); err != nil {
		t.Fatal(err)
	}
	defer ref.Unreference()

	// Write in two chunks at offsets, read back the whole range.
	ref.DMAWrite(0, mem.BufBytes(bytes.Repeat([]byte{0x01}, testPageSize)))
	ref.DMAWrite(testPageSize, mem.BufBytes(bytes.Repeat([]byte{0x02}, testPageSize)))
	out := make([]byte, length)
	ref.DMARead(0, out)
	for i := 0; i < testPageSize; i++ {
		if out[i] != 0x01 {
			t.Fatalf("byte %d = %#x, want 0x01", i, out[i])
		}
	}
	for i := testPageSize; i < length; i++ {
		if out[i] != 0x02 {
			t.Fatalf("byte %d = %#x, want 0x02", i, out[i])
		}
	}
	// The same data must be visible to the application at va.
	app := make([]byte, length)
	if err := as.Peek(va, app); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(app, out) {
		t.Fatal("application view differs from DMA view")
	}
}

func TestDMAOverrunPanics(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), 128, true); err != nil {
		t.Fatal(err)
	}
	defer ref.Unreference()
	defer func() {
		if recover() == nil {
			t.Fatal("DMA overrun did not panic")
		}
	}()
	ref.DMAWrite(0, mem.BufBytes(make([]byte, 256)))
}

// TestDeferredFreeAfterRegionRemovalDuringIO is the end-to-end safety
// property of Section 3.1: an application (maliciously) deallocates its
// buffer while output is in flight; the pages must survive until the
// device is done and only then return to the free list.
func TestDeferredFreeAfterRegionRemovalDuringIO(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	payload := bytes.Repeat([]byte{0x77}, 2*testPageSize)
	if err := as.Poke(r.Start(), payload); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), 2*testPageSize, false); err != nil {
		t.Fatal(err)
	}
	frames := ref.Frames()
	if err := as.RemoveRegion(r); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if f.Free() {
			t.Fatal("frame freed while device reference outstanding")
		}
	}
	// Another process hammers the allocator; it must never receive the
	// in-flight frames.
	other := sys.NewAddressSpace()
	or := mustRegion(t, other, 2*testPageSize, Unmovable)
	if err := other.Poke(or.Start(), bytes.Repeat([]byte{0xEE}, 2*testPageSize)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 2*testPageSize)
	ref.DMARead(0, out)
	if !bytes.Equal(out, payload) {
		t.Fatal("output data corrupted by reallocation during I/O")
	}
	ref.Unreference()
	for _, f := range frames {
		if !f.Free() {
			t.Fatal("frame not freed after I/O completion")
		}
	}
	checkAll(t, sys, as)
}
