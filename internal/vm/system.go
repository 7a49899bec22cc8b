package vm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// SysStats counts VM events since the System was created. The counters
// let tests and ablation benches verify which mechanism handled a fault
// (TCOW copy vs write re-enable vs conventional COW vs physical copy).
type SysStats struct {
	Faults           uint64 // recoverable faults handled
	UnrecoverableFlt uint64 // faults refused (segv / hidden region)
	ZeroFills        uint64 // pages zero-filled on demand
	PageIns          uint64 // pages brought back from backing store
	PageOuts         uint64 // pages evicted by the daemon
	COWCopies        uint64 // conventional COW fault copies
	TCOWCopies       uint64 // TCOW fault copies (output pending)
	TCOWReenables    uint64 // TCOW faults resolved by re-enabling write
	PhysRegionCopies uint64 // region copies forced physical by input-disabled COW
	COWRegionSetups  uint64 // region copies set up as COW chains
}

// System is the machine-wide VM state: physical memory, every address
// space, and the memory-object registry.
type System struct {
	pm       *mem.PhysMem
	pageSize int
	spaces   []*AddressSpace
	objects  []*MemObject // by id-1, nil once destroyed; ids are dense
	nextASID int
	stats    SysStats
	tr       *trace.Tracer

	// Storage kept for reuse across RemoveRegion, object destruction,
	// Unreference and Reset (see storage.go): cleared page tables,
	// object page slots, region lists and I/O reference lists by size
	// class, and the slabs records are carved from.
	tables     spares[PTE]
	pages      spares[*mem.Frame]
	regions    spares[*Region]
	extents    spares[Extent]
	entries    spares[refEntry]
	regionSlab slab[Region]
	objectSlab slab[MemObject]
}

// NewSystem creates a VM system over the given physical memory.
func NewSystem(pm *mem.PhysMem) *System {
	return &System{pm: pm, pageSize: pm.PageSize()}
}

// PageSize returns the system page size in bytes.
func (sys *System) PageSize() int { return sys.pageSize }

// Phys returns the underlying physical memory.
func (sys *System) Phys() *mem.PhysMem { return sys.pm }

// Stats returns a snapshot of the VM event counters.
func (sys *System) Stats() SysStats { return sys.stats }

// SetTracer installs a structured-event tracer on the VM system (nil
// disables). Fault resolution, pageout, and region state transitions
// are emitted as CatVM instants.
func (sys *System) SetTracer(tr *trace.Tracer) { sys.tr = tr }

// emit records a VM instant event when tracing is enabled.
func (sys *System) emit(name string, bytes int) {
	if sys.tr != nil {
		sys.tr.Instant(trace.CatVM, name, bytes)
	}
}

// Spaces returns the live address spaces.
func (sys *System) Spaces() []*AddressSpace { return sys.spaces }

// NewAddressSpace creates an empty address space.
func (sys *System) NewAddressSpace() *AddressSpace {
	sys.nextASID++
	as := &AddressSpace{
		sys:   sys,
		id:    sys.nextASID,
		base:  Addr(sys.pageSize), // leave page 0 unmapped, as any sane kernel does
		limit: Addr(1) << 40,
	}
	sys.spaces = append(sys.spaces, as)
	return as
}

// DestroySpace tears down an address space: every region is removed and
// its pages released — with deallocation deferred past any in-flight I/O
// (Section 3.1 names "normal or abnormal termination of the application"
// as exactly the event that makes wiring insufficient).
func (sys *System) DestroySpace(as *AddressSpace) {
	for len(as.regions) > 0 {
		_ = as.RemoveRegion(as.regions[len(as.regions)-1])
	}
	as.dropLists()
	for i, s := range sys.spaces {
		if s == as {
			sys.spaces = append(sys.spaces[:i], sys.spaces[i+1:]...)
			break
		}
	}
}

// Reset returns the VM system to its post-construction state: no
// address spaces, no memory objects, zeroed statistics, and id counters
// rewound so a recycled system hands out the same ids as a fresh one
// (deterministic pageout scan order depends on object ids). The caller
// owns the underlying physical memory and must reset it first; Reset
// drops every reference into it without releasing frames one by one.
//
// Reset walks only what the run created: the live spaces' regions and
// the objects it registered. Page tables live in their regions; each
// live region's table, each live space's region list and moved-out
// queues, and each live object's page slots are cleared and go to the
// size-classed spare lists, so a recycled system does not regrow them
// from empty. A stale space panics on its first mapping
// after Reset instead of aliasing a live one, and a stale object on its
// first page insert. Clearing costs O(each region's pages and each
// object's peak page index). The Region and MemObject slabs start new
// chunks, so no chunk holds records of two runs.
func (sys *System) Reset() {
	for _, as := range sys.spaces {
		for _, r := range as.regions {
			sys.tables.put(r.pt)
			r.pt = nil
		}
		as.dropLists()
		as.last, as.stale = nil, true
	}
	clear(sys.spaces)
	sys.spaces = sys.spaces[:0]
	for _, o := range sys.objects {
		if o == nil {
			continue
		}
		sys.pages.put(o.pages)
		o.pages, o.resident, o.stale = nil, 0, true
	}
	clear(sys.objects)
	sys.objects = sys.objects[:0]
	sys.regionSlab.reset()
	sys.objectSlab.reset()
	sys.nextASID = 0
	sys.stats = SysStats{}
	sys.tr = nil
}

// NewKernelObject creates a memory object owned by the kernel (no
// region). System and overlay buffers are built from kernel objects.
func (sys *System) NewKernelObject() *MemObject {
	o := sys.newObject()
	o.ref() // the kernel itself holds the reference
	return o
}

// RenewKernelObject makes o, a kernel object that the last Reset left
// stale, live again as a new kernel object, exactly as NewKernelObject
// would build one (the next id, no pages, the kernel's reference), but
// without allocating. The caller must hold the only reference to o; it
// panics if o is live or belongs to another System.
func (sys *System) RenewKernelObject(o *MemObject) *MemObject {
	if !o.stale || o.sys != sys {
		panic(fmt.Sprintf("vm: renew of object %d, which is not a stale object of this system", o.id))
	}
	*o = MemObject{}
	sys.register(o)
	o.ref()
	return o
}

// ReleaseKernelObject drops the kernel's reference, destroying the
// object and releasing its frames (deferred while I/O references remain).
func (sys *System) ReleaseKernelObject(o *MemObject) { o.unref() }

// AllocFrameInto allocates a physical frame and attaches it as page pi
// of object o.
func (sys *System) AllocFrameInto(o *MemObject, pi int) (*mem.Frame, error) {
	f, err := sys.pm.Alloc()
	if err != nil {
		return nil, err
	}
	o.insertPage(pi, f)
	return f, nil
}

// pageFloor rounds va down to a page boundary.
func (sys *System) pageFloor(va Addr) Addr {
	return va &^ Addr(sys.pageSize-1)
}

// pageCount returns the number of pages spanned by [va, va+length).
func (sys *System) pageCount(va Addr, length int) int {
	if length <= 0 {
		return 0
	}
	first := sys.pageFloor(va)
	last := sys.pageFloor(va + Addr(length) - 1)
	return int((last-first)/Addr(sys.pageSize)) + 1
}

// invalidateFrame removes every page table entry in every address space
// that maps frame f. Kernels keep reverse maps for this; the simulation
// can afford a scan of every region's table.
func (sys *System) invalidateFrame(f *mem.Frame) {
	for _, as := range sys.spaces {
		for _, r := range as.regions {
			for i := range r.pt {
				if r.pt[i].Frame == f {
					r.pt[i] = PTE{}
				}
			}
		}
	}
}

func (sys *System) String() string {
	live := 0
	for _, o := range sys.objects {
		if o != nil {
			live++
		}
	}
	return fmt.Sprintf("vm.System(pageSize=%d spaces=%d objects=%d)",
		sys.pageSize, len(sys.spaces), live)
}
