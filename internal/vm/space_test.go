package vm

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
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

// TestSystemResetReusesMaps checks the storage behind a recycled
// system: Reset hands the live regions' page tables and the live
// objects' page slots, cleared, to the size-classed spare lists, from
// which the next run's first mapping and first page inserts of each
// size take them (storage of a size with no spare left is new), ids
// restart from 1, a space or object used after Reset panics on its
// first write instead of aliasing a live one, and a warm Reset
// allocates nothing.
func TestSystemResetReusesMaps(t *testing.T) {
	sys := newTestSystem(32)
	data := bytes.Repeat([]byte{9}, 2*testPageSize)
	// run builds what a short run leaves behind: a space with a mapped
	// two-page region and a kernel object holding a page.
	run := func() (*AddressSpace, *Region, *MemObject) {
		as := sys.NewAddressSpace()
		r := mustRegion(t, as, 2*testPageSize, Unmovable)
		if err := as.Poke(r.Start(), data); err != nil {
			t.Fatal(err)
		}
		k := sys.NewKernelObject()
		if _, err := sys.AllocFrameInto(k, 0); err != nil {
			t.Fatal(err)
		}
		return as, r, k
	}
	reset := func() {
		sys.Phys().Reset()
		sys.Reset()
	}
	as, r, k := run()
	if r.pt == nil {
		t.Fatal("a mapped region holds no page table")
	}
	ptr := func(s any) uintptr { return reflect.ValueOf(s).Pointer() }
	oldTable, oldRegionPages, oldKernelPages := ptr(r.pt), ptr(r.object.pages), ptr(k.pages)

	reset()
	if r.pt != nil || r.object.pages != nil || k.pages != nil {
		t.Fatal("Reset left a stale region or object holding its storage")
	}
	if err := sys.CheckSpares(); err != nil {
		t.Fatal(err)
	}

	as2 := sys.NewAddressSpace()
	if as2.ID() != 1 || len(as2.Regions()) != 0 {
		t.Fatalf("space after Reset: id %d, %d regions; want id 1, empty", as2.ID(), len(as2.Regions()))
	}
	// Object 1 gets a two-page region's slots, object 2 a one-page
	// object's; each takes the spare of its size.
	for _, c := range []struct {
		want, pi int
		old      uintptr
	}{{1, 1, oldRegionPages}, {2, 0, oldKernelPages}} {
		want, pi := c.want, c.pi
		o := sys.NewKernelObject()
		if o.ID() != want || o.pages != nil || o.ResidentPages() != 0 {
			t.Fatalf("object after Reset: id %d, %d page slots, %d resident; want id %d, none",
				o.ID(), len(o.pages), o.ResidentPages(), want)
		}
		if _, err := sys.AllocFrameInto(o, pi); err != nil {
			t.Fatal(err)
		}
		if ptr(o.pages) != c.old {
			t.Fatalf("object %d inserting page %d did not take the spare slots of its size", want, pi)
		}
	}
	o := sys.NewKernelObject()
	if _, err := sys.AllocFrameInto(o, 0); err != nil {
		t.Fatal(err)
	}
	if p := ptr(o.pages); p == oldRegionPages || p == oldKernelPages {
		t.Fatal("object beyond the spare page slots did not get new storage")
	}
	r2 := mustRegion(t, as2, 2*testPageSize, Unmovable)
	if err := as2.Poke(r2.Start(), data[:1]); err != nil {
		t.Fatal(err)
	}
	if ptr(r2.pt) != oldTable {
		t.Fatal("a two-page region's first mapping did not take the spare table")
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
	mustPanic("space's new mapping", func() { _, _ = as.MapObject(o, testPageSize, MovedIn) })
	mustPanic("kernel object", func() { _, _ = sys.AllocFrameInto(k, 0) })

	if raceEnabled {
		return
	}
	var before, after runtime.MemStats
	var allocs uint64
	for i := range 5 {
		reset()
		run()
		runtime.ReadMemStats(&before)
		reset()
		runtime.ReadMemStats(&after)
		if i > 0 { // the first Resets size the spare list
			allocs += after.Mallocs - before.Mallocs
		}
	}
	if allocs != 0 {
		t.Errorf("4 warm Resets allocated %d times, want 0", allocs)
	}
}

// TestSparesBoundedAcrossResets runs 60 short runs whose regions come
// in a different mix of sizes each time, in a different order, and
// Resets after each: every size class of spare page tables and page
// slots must hold no more than the most that class had in use in any
// one run, so the storage a recycled system keeps does not grow.
func TestSparesBoundedAcrossResets(t *testing.T) {
	sys := newTestSystem(256)
	sizes := []int{1, 2, 3, 5, 8, 9, 17}
	peak := map[int]int{}
	for run := range 60 {
		as := sys.NewAddressSpace()
		live := map[int]int{}
		for i := range 1 + run%5 {
			pages := sizes[(run*3+i*5)%len(sizes)]
			r := mustRegion(t, as, pages*testPageSize, Unmovable)
			// The last page first: the object's page slots are sized once.
			for _, va := range []Addr{r.End() - 1, r.Start()} {
				if err := as.Poke(va, []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
			live[sizeClass(pages)]++ // one page table and one page slot array
		}
		for k, n := range live {
			peak[k] = max(peak[k], n)
		}
		sys.Phys().Reset()
		sys.Reset()
		if err := sys.CheckSpares(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for k, class := range sys.tables {
			if len(class) > peak[k] {
				t.Fatalf("run %d: %d spare page tables of class %d, but at most %d were ever in use at once",
					run, len(class), k, peak[k])
			}
		}
		for k, class := range sys.pages {
			if len(class) > peak[k] {
				t.Fatalf("run %d: %d spare page slot arrays of class %d, but at most %d were ever in use at once",
					run, len(class), k, peak[k])
			}
		}
	}
}
