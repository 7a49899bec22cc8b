package vm

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/mem"
)

const testPageSize = 4096

func newTestSystem(frames int) *System {
	return NewSystem(mem.New(frames, testPageSize))
}

func mustRegion(t *testing.T, as *AddressSpace, length int, state RegionState) *Region {
	t.Helper()
	r, err := as.AllocRegion(length, state)
	if err != nil {
		t.Fatalf("AllocRegion(%d, %v): %v", length, state, err)
	}
	return r
}

func checkAll(t *testing.T, sys *System, as *AddressSpace) {
	t.Helper()
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Phys().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRegionPlacement(t *testing.T) {
	sys := newTestSystem(32)
	as := sys.NewAddressSpace()
	r1 := mustRegion(t, as, 2*testPageSize, Unmovable)
	r2 := mustRegion(t, as, testPageSize, Unmovable)
	if r1.End() > r2.Start() {
		t.Fatalf("regions overlap: %v %v", r1, r2)
	}
	if r1.Start() != Addr(testPageSize) {
		t.Fatalf("first region at %#x, want first page", r1.Start())
	}
	// Removing r1 opens a gap that a new small region should reuse.
	if err := as.RemoveRegion(r1); err != nil {
		t.Fatal(err)
	}
	r3 := mustRegion(t, as, testPageSize, Unmovable)
	if r3.Start() != Addr(testPageSize) {
		t.Fatalf("gap not reused: r3 at %#x", r3.Start())
	}
	checkAll(t, sys, as)
}

func TestAllocRegionRoundsUp(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 100, Unmovable)
	if r.Len() != testPageSize {
		t.Fatalf("length = %d, want one page", r.Len())
	}
	if r.Pages() != 1 {
		t.Fatalf("pages = %d, want 1", r.Pages())
	}
}

func TestAllocRegionAtOverlap(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	if _, err := as.AllocRegionAt(0x10000, 2*testPageSize, Unmovable); err != nil {
		t.Fatal(err)
	}
	if _, err := as.AllocRegionAt(0x10000+testPageSize, testPageSize, Unmovable); err == nil {
		t.Fatal("overlapping AllocRegionAt succeeded")
	}
	if _, err := as.AllocRegionAt(0x10001, testPageSize, Unmovable); err == nil {
		t.Fatal("unaligned AllocRegionAt succeeded")
	}
}

func TestPokePeekRoundTrip(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 3*testPageSize, Unmovable)
	// Unaligned range crossing two page boundaries.
	va := r.Start() + 1000
	data := make([]byte, 2*testPageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.Poke(va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.Peek(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("Peek data differs from Poke data")
	}
	if sys.Stats().ZeroFills != 3 {
		t.Fatalf("zero fills = %d, want 3", sys.Stats().ZeroFills)
	}
	checkAll(t, sys, as)
}

func TestPeekZeroFill(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	buf := []byte{1, 2, 3}
	if err := as.Peek(r.Start(), buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 0 || buf[2] != 0 {
		t.Fatal("fresh page not zero-filled")
	}
}

func TestAccessOutsideRegionFaults(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	err := as.Poke(0x100000, []byte{1})
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	if sys.Stats().UnrecoverableFlt != 1 {
		t.Fatalf("unrecoverable faults = %d, want 1", sys.Stats().UnrecoverableFlt)
	}
}

func TestRemoveRegionReleasesFrames(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	if err := as.Poke(r.Start(), make([]byte, 2*testPageSize)); err != nil {
		t.Fatal(err)
	}
	free := sys.Phys().FreeFrames()
	if err := as.RemoveRegion(r); err != nil {
		t.Fatal(err)
	}
	if got := sys.Phys().FreeFrames(); got != free+2 {
		t.Fatalf("free frames = %d, want %d", got, free+2)
	}
	if err := as.RemoveRegion(r); err == nil {
		t.Fatal("double RemoveRegion succeeded")
	}
	checkAll(t, sys, as)
}

func TestRegionHiding(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, MovedIn)
	if err := as.Poke(r.Start(), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkMovingOut(); err != nil {
		t.Fatal(err)
	}
	as.Invalidate(r.Start(), r.Len())
	if err := r.MarkMovedOut(); err != nil {
		t.Fatal(err)
	}

	// The hidden region must behave exactly as if removed.
	buf := make([]byte, 4)
	if err := as.Peek(r.Start(), buf); !errors.Is(err, ErrFault) {
		t.Fatalf("read of hidden region: err = %v, want ErrFault", err)
	}
	if err := as.Poke(r.Start(), buf); !errors.Is(err, ErrFault) {
		t.Fatalf("write of hidden region: err = %v, want ErrFault", err)
	}

	// But its pages remain allocated, and reinstating restores access
	// without copying.
	if r.Object().ResidentPages() != 1 {
		t.Fatal("hidden region lost its pages")
	}
	if err := r.MarkMovingIn(); err != nil {
		t.Fatal(err)
	}
	as.Reinstate(r)
	if err := r.MarkMovedIn(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := as.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("reinstated data = %q", got)
	}
	checkAll(t, sys, as)
}

func TestRegionStateMachineRejectsBadTransitions(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	u := mustRegion(t, as, testPageSize, Unmovable)
	if err := u.MarkMovingOut(); !errors.Is(err, ErrBadRegion) {
		t.Fatalf("unmovable region moved out: %v", err)
	}
	m := mustRegion(t, as, testPageSize, MovedIn)
	if err := m.MarkMovedOut(); !errors.Is(err, ErrBadRegion) {
		t.Fatal("MovedIn -> MovedOut skipped MovingOut")
	}
	if err := m.MarkMovingIn(); !errors.Is(err, ErrBadRegion) {
		t.Fatal("MovedIn -> MovingIn allowed")
	}
}

func TestRegionCaching(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	small := mustRegion(t, as, testPageSize, MovedIn)
	big := mustRegion(t, as, 4*testPageSize, MovedIn)
	for _, r := range []*Region{small, big} {
		if err := r.MarkMovingOut(); err != nil {
			t.Fatal(err)
		}
		if err := r.MarkWeaklyMovedOut(); err != nil {
			t.Fatal(err)
		}
	}
	if n := as.CachedRegions(true); n != 2 {
		t.Fatalf("cached = %d, want 2", n)
	}
	// Dequeue matches on length.
	got := as.DequeueCached(4*testPageSize, true)
	if got != big {
		t.Fatalf("dequeued %v, want big region", got)
	}
	if as.DequeueCached(4*testPageSize, true) != nil {
		t.Fatal("big region dequeued twice")
	}
	// Wrong queue: the moved-out queue is empty.
	if as.DequeueCached(testPageSize, false) != nil {
		t.Fatal("weak region found in strong queue")
	}
	if as.DequeueCached(testPageSize, true) != small {
		t.Fatal("small region not found")
	}
}

func TestDequeueSkipsRemovedRegions(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, MovedIn)
	if err := r.MarkMovingOut(); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkMovedOut(); err != nil {
		t.Fatal(err)
	}
	if err := as.RemoveRegion(r); err != nil {
		t.Fatal(err)
	}
	if as.DequeueCached(testPageSize, false) != nil {
		t.Fatal("removed region dequeued")
	}
	if as.CachedRegions(false) != 0 {
		t.Fatal("removed region still counted")
	}
}

func TestMapObjectMoveInput(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	// Kernel builds a system buffer and fills it by DMA.
	obj := sys.NewKernelObject()
	f0, err := sys.AllocFrameInto(obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	copy(f0.Data(), "incoming datagram")
	r, err := as.MapObject(obj, testPageSize, MovedIn)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 17)
	if err := as.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "incoming datagram" {
		t.Fatalf("mapped data = %q", got)
	}
	// The kernel can now drop its own reference; region keeps it alive.
	sys.ReleaseKernelObject(obj)
	if err := as.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if err := as.RemoveRegion(r); err != nil {
		t.Fatal(err)
	}
	if !f0.Free() {
		t.Fatal("system buffer frame not freed after last unref")
	}
	checkAll(t, sys, as)
}

func TestReadPhysSeesThroughProtections(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, MovedIn)
	if err := as.Poke(r.Start(), []byte("hidden")); err != nil {
		t.Fatal(err)
	}
	if err := r.MarkMovingOut(); err != nil {
		t.Fatal(err)
	}
	as.Invalidate(r.Start(), r.Len())
	if err := r.MarkMovedOut(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := as.ReadPhys(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hidden" {
		t.Fatalf("ReadPhys = %q", got)
	}
}

// TestSystemResetReusesMaps checks the storage reuse behind a recycled
// system: Reset clears the page tables and object page slots of the
// live spaces and objects and hands them to the next NewAddressSpace
// and newObject (an object beyond the spares gets new storage), ids
// restart from 1, and a space or object used after Reset panics on its
// first write instead of aliasing a live one.
func TestSystemResetReusesMaps(t *testing.T) {
	sys := newTestSystem(32)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	data := bytes.Repeat([]byte{9}, 2*testPageSize)
	if err := as.Poke(r.Start(), data); err != nil {
		t.Fatal(err)
	}
	k := sys.NewKernelObject()
	if _, err := sys.AllocFrameInto(k, 0); err != nil {
		t.Fatal(err)
	}
	ptr := func(m any) uintptr { return reflect.ValueOf(m).Pointer() }
	oldPT := ptr(as.pt)
	oldPages := map[uintptr]bool{ptr(r.object.pages): true, ptr(k.pages): true}

	sys.Phys().Reset()
	sys.Reset()
	if as.pt != nil || r.object.pages != nil || k.pages != nil {
		t.Fatal("Reset left a stale space or object holding its storage")
	}

	as2 := sys.NewAddressSpace()
	if as2.ID() != 1 || len(as2.pt) != 0 || ptr(as2.pt) != oldPT {
		t.Fatalf("space after Reset: id %d, %d page table entries, reused map %t; want id 1, empty, reused",
			as2.ID(), len(as2.pt), ptr(as2.pt) == oldPT)
	}
	for want := 1; want <= 2; want++ {
		o := sys.NewKernelObject()
		reused := cap(o.pages) > 0 && oldPages[ptr(o.pages)]
		if o.ID() != want || len(o.pages) != 0 || o.ResidentPages() != 0 || !reused {
			t.Fatalf("object after Reset: id %d, %d page slots, %d resident, reused slots %t; want id %d, empty, reused",
				o.ID(), len(o.pages), o.ResidentPages(), reused, want)
		}
	}
	o := sys.NewKernelObject()
	if _, err := sys.AllocFrameInto(o, 0); err != nil {
		t.Fatal(err)
	}
	if oldPages[ptr(o.pages)] {
		t.Fatal("object beyond the spare page slots did not get new storage")
	}

	mustPanic := func(what string, write func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("write through a %s used after Reset did not panic", what)
			}
		}()
		write()
	}
	mustPanic("space", func() { _ = as.Poke(r.Start(), data) })
	mustPanic("kernel object", func() { _, _ = sys.AllocFrameInto(k, 0) })
}
