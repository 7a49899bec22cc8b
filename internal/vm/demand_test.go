package vm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
)

// TestDemandPagingReclaims: with the daemon wired into the allocator, an
// address space can touch more pages than physical memory holds.
func TestDemandPagingReclaims(t *testing.T) {
	pm := mem.New(8, testPageSize)
	sys := NewSystem(pm)
	sys.EnableDemandPaging(2)
	as := sys.NewAddressSpace()
	// 12 pages of data in 8 frames of memory.
	r := mustRegion(t, as, 12*testPageSize, Unmovable)
	data := make([]byte, 12*testPageSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	if err := as.Poke(r.Start(), data); err != nil {
		t.Fatalf("poke beyond physical memory: %v", err)
	}
	if sys.Stats().PageOuts == 0 {
		t.Fatal("no pageouts despite memory pressure")
	}
	got := make([]byte, len(data))
	if err := as.Peek(r.Start(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted by demand paging")
	}
	if pm.Stats().ReclaimRuns == 0 {
		t.Fatal("reclaimer never ran")
	}
	checkAll(t, sys, as)
}

// TestDemandPagingRespectsInputRefs: even under hard pressure, pages
// with pending input are never evicted; allocation fails instead of
// corrupting in-flight I/O.
func TestDemandPagingRespectsInputRefs(t *testing.T) {
	pm := mem.New(4, testPageSize)
	sys := NewSystem(pm)
	sys.EnableDemandPaging(4)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 4*testPageSize, Unmovable)
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), 4*testPageSize, true); err != nil {
		t.Fatal(err)
	}
	// All frames are input-referenced; no allocation can succeed.
	if _, err := pm.Alloc(); err == nil {
		t.Fatal("allocation succeeded by evicting input-referenced pages")
	}
	frames := ref.Frames()
	for _, f := range frames {
		if f.Free() {
			t.Fatal("input-referenced frame reclaimed")
		}
	}
	ref.Unreference()
	// Now pressure can evict.
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("allocation failed after unreference: %v", err)
	}
}

// TestDemandPagingEvictsOutputPages: output-referenced pages may be
// evicted under pressure — their backing-store copy is written and the
// frame is released — but I/O-deferred deallocation keeps the frame out
// of the free list until the output completes, so pressure can never
// corrupt in-flight output data.
func TestDemandPagingEvictsOutputPages(t *testing.T) {
	pm := mem.New(4, testPageSize)
	sys := NewSystem(pm)
	sys.EnableDemandPaging(4)
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, 3*testPageSize, Unmovable)
	payload := bytes.Repeat([]byte{0x6B}, 3*testPageSize)
	if err := as.Poke(r.Start(), payload); err != nil {
		t.Fatal(err)
	}
	ref := new(IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), 3*testPageSize, false); err != nil {
		t.Fatal(err)
	}
	// One frame free; a second allocation triggers eviction of the
	// output pages, but their frees are deferred — the allocation fails
	// rather than hand out a frame a device is still reading.
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("first alloc (free frame): %v", err)
	}
	if _, err := pm.Alloc(); err == nil {
		t.Fatal("allocation succeeded with all remaining frames in-flight")
	}
	if sys.Stats().PageOuts == 0 {
		t.Fatal("daemon did not try to evict output pages")
	}
	// The device still reads the original data from the evicted frames.
	out := make([]byte, 3*testPageSize)
	ref.DMARead(0, out)
	if !bytes.Equal(out, payload) {
		t.Fatal("output data corrupted by pressure eviction")
	}
	// Completion releases the deferred frames; allocation now succeeds,
	// and the application's data survived on backing store.
	ref.Unreference()
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("alloc after output completion: %v", err)
	}
}
