package vm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

func TestPageoutRoundTrip(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	data := bytes.Repeat([]byte{0x3C}, 2*testPageSize)
	if err := as.Poke(r.Start(), data); err != nil {
		t.Fatal(err)
	}
	d := NewPageoutDaemon(sys)
	if got := d.ScanOnce(10); got != 2 {
		t.Fatalf("paged out %d, want 2", got)
	}
	if r.Object().ResidentPages() != 0 {
		t.Fatal("pages still resident after pageout")
	}
	if _, ok := as.PTEAt(r.Start()); ok {
		t.Fatal("PTE survived pageout")
	}
	// Touch the data again: page-in restores it.
	got := make([]byte, 2*testPageSize)
	if err := as.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted by pageout/pagein cycle")
	}
	if sys.Stats().PageIns != 2 {
		t.Fatalf("page-ins = %d, want 2", sys.Stats().PageIns)
	}
	checkAll(t, sys, as)
}

// TestInputDisabledPageout: pages with pending input references are
// never evicted (Section 3.2), with no wiring involved.
func TestInputDisabledPageout(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 4*testPageSize, Unmovable)
	if err := as.Poke(r.Start(), make([]byte, 4*testPageSize)); err != nil {
		t.Fatal(err)
	}
	// Pending input on the middle two pages.
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start()+Addr(testPageSize), 2*testPageSize, true); err != nil {
		t.Fatal(err)
	}
	d := NewPageoutDaemon(sys)
	if got := d.ScanOnce(100); got != 2 {
		t.Fatalf("paged out %d, want only the 2 unreferenced pages", got)
	}
	// DMA lands safely in the still-resident pages.
	ref.DMAWrite(0, mem.BufBytes([]byte("safe input")))
	ref.Unreference()
	buf := make([]byte, 10)
	if err := as.Peek(r.Start()+Addr(testPageSize), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "safe input" {
		t.Fatalf("input data = %q", buf)
	}
	// After unreference the pages become evictable again.
	if got := d.ScanOnce(100); got != 2 {
		t.Fatalf("second scan paged out %d, want 2", got)
	}
	checkAll(t, sys, as)
}

// TestPageoutAllowedDuringOutput: output-referenced pages may be paged
// out; I/O-deferred deallocation keeps the frame contents intact for the
// device until completion.
func TestPageoutAllowedDuringOutput(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, testPageSize, Unmovable)
	payload := bytes.Repeat([]byte{0x42}, testPageSize)
	if err := as.Poke(r.Start(), payload); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), testPageSize, false); err != nil {
		t.Fatal(err)
	}
	d := NewPageoutDaemon(sys)
	if got := d.ScanOnce(100); got != 1 {
		t.Fatalf("paged out %d, want 1 (output pages are evictable)", got)
	}
	// The frame is off the object but must still carry the data.
	out := make([]byte, testPageSize)
	ref.DMARead(0, out)
	if !bytes.Equal(out, payload) {
		t.Fatal("output data lost by pageout during output")
	}
	frames := ref.Frames()
	ref.Unreference()
	if !frames[0].Free() {
		t.Fatal("paged-out output frame not freed at completion")
	}
	// The application still sees its data via page-in from backing store.
	got := make([]byte, testPageSize)
	if err := as.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("application data lost by pageout during output")
	}
	checkAll(t, sys, as)
}

func TestWiringPreventsPageout(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	if err := as.Poke(r.Start(), make([]byte, 2*testPageSize)); err != nil {
		t.Fatal(err)
	}
	if err := as.WireRange(r.Start(), 2*testPageSize); err != nil {
		t.Fatal(err)
	}
	d := NewPageoutDaemon(sys)
	if got := d.ScanOnce(100); got != 0 {
		t.Fatalf("paged out %d wired pages", got)
	}
	if err := as.UnwireRange(r.Start(), 2*testPageSize); err != nil {
		t.Fatal(err)
	}
	if got := d.ScanOnce(100); got != 2 {
		t.Fatalf("paged out %d after unwire, want 2", got)
	}
}

func TestWireFaultsInUnresidentPages(t *testing.T) {
	sys := newTestSystem(8)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	if err := as.WireRange(r.Start(), 2*testPageSize); err != nil {
		t.Fatal(err)
	}
	if r.Object().ResidentPages() != 2 {
		t.Fatal("wire did not fault pages in")
	}
	if err := as.UnwireRange(r.Start(), 2*testPageSize); err != nil {
		t.Fatal(err)
	}
}

func TestEvictableCount(t *testing.T) {
	sys := newTestSystem(16)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 3*testPageSize, Unmovable)
	if err := as.Poke(r.Start(), make([]byte, 3*testPageSize)); err != nil {
		t.Fatal(err)
	}
	d := NewPageoutDaemon(sys)
	if got := d.Evictable(); got != 3 {
		t.Fatalf("evictable = %d, want 3", got)
	}
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), testPageSize, true); err != nil {
		t.Fatal(err)
	}
	if got := d.Evictable(); got != 2 {
		t.Fatalf("evictable = %d, want 2 with one input-referenced page", got)
	}
	ref.Unreference()
}

func TestPageoutDeterminism(t *testing.T) {
	run := func() []uint64 {
		sys := newTestSystem(32)
		as := sys.NewAddressSpace()
		for i := 0; i < 3; i++ {
			r := mustRegion(t, as, 2*testPageSize, Unmovable)
			if err := as.Poke(r.Start(), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		d := NewPageoutDaemon(sys)
		d.ScanOnce(3)
		s := sys.Stats()
		return []uint64{s.PageOuts, s.Faults, s.ZeroFills}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic pageout: %v vs %v", a, b)
		}
	}
}

// Pages of an object excluded from pageout are never candidates; the
// daemon reclaims other objects' pages around them.
func TestPageoutSkipsExcludedObject(t *testing.T) {
	sys := newTestSystem(16)
	k := sys.NewKernelObject()
	k.ExcludeFromPageout()
	for pi := range 3 {
		if _, err := sys.AllocFrameInto(k, pi); err != nil {
			t.Fatal(err)
		}
	}
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 2*testPageSize, Unmovable)
	if err := as.Poke(r.Start(), make([]byte, 2*testPageSize)); err != nil {
		t.Fatal(err)
	}
	d := NewPageoutDaemon(sys)
	if got := d.Evictable(); got != 2 {
		t.Fatalf("Evictable %d, want the region's 2 pages only", got)
	}
	if got := d.ScanOnce(10); got != 2 || k.ResidentPages() != 3 {
		t.Fatalf("paged out %d with %d excluded pages left, want 2 and 3", got, k.ResidentPages())
	}
	checkAll(t, sys, as)
}

// RenewKernelObject rebuilds a stale kernel object in place, exactly as
// NewKernelObject would build one, and refuses a live object.
func TestRenewKernelObject(t *testing.T) {
	sys := newTestSystem(16)
	k := sys.NewKernelObject()
	k.ExcludeFromPageout()
	if _, err := sys.AllocFrameInto(k, 5); err != nil {
		t.Fatal(err)
	}
	sys.Phys().Reset()
	sys.Reset()
	if o := sys.RenewKernelObject(k); o != k || o.ID() != 1 || o.ResidentPages() != 0 || o.noPageout || o.stale {
		t.Fatalf("renewed object: same %t, id %d, %d pages, excluded %t, stale %t; want the same, id 1, empty, pageable, live",
			o == k, o.ID(), o.ResidentPages(), o.noPageout, o.stale)
	}
	if _, err := sys.AllocFrameInto(k, 0); err != nil {
		t.Fatal(err)
	}
	sys.ReleaseKernelObject(k)
	if sys.Phys().FreeFrames() != 16 {
		t.Fatalf("%d free frames after releasing the renewed object, want 16", sys.Phys().FreeFrames())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("renewing a live object did not panic")
		}
	}()
	sys.RenewKernelObject(sys.NewKernelObject())
}
