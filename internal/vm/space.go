package vm

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
)

// AddressSpace is one application's virtual address space: a sorted set
// of regions, each holding the page table entries of its own pages, and
// the per-space region caches used by the (weak) move semantics.
type AddressSpace struct {
	sys     *System
	id      int
	regions []*Region // sorted by start
	last    *Region   // FindRegion's last hit, nil after its removal
	stale   bool      // dropped by System.Reset: mapping a page panics

	movedOutQ     []*Region
	weakMovedOutQ []*Region

	base, limit Addr
}

// ID returns the address space identifier.
func (as *AddressSpace) ID() int { return as.id }

// System returns the owning VM system.
func (as *AddressSpace) System() *System { return as.sys }

// Regions returns the regions currently mapped, sorted by address. The
// slice is the space's own, valid until its next region change or
// System.Reset.
func (as *AddressSpace) Regions() []*Region { return as.regions }

// FindRegion returns the region containing va, or nil. It tries its
// last hit first, so a walk over one region's pages searches once. A
// space that System.Reset dropped panics: its region list went back to
// the system's spares.
func (as *AddressSpace) FindRegion(va Addr) *Region {
	if r := as.last; r != nil && r.contains(va) {
		return r
	}
	if as.stale {
		panic(fmt.Sprintf("vm: address space %d used after System.Reset", as.id))
	}
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].End() > va
	})
	if i < len(as.regions) && as.regions[i].contains(va) {
		as.last = as.regions[i]
		return as.last
	}
	return nil
}

// PTEAt returns the page table entry mapping va's page.
func (as *AddressSpace) PTEAt(va Addr) (PTE, bool) {
	pte := as.FindRegion(va).pte(va)
	return pte, pte.Frame != nil
}

// roundUp rounds length up to a page multiple.
func (as *AddressSpace) roundUp(length int) int {
	ps := as.sys.pageSize
	return (length + ps - 1) / ps * ps
}

// findGap locates the lowest free address range of the given byte size.
func (as *AddressSpace) findGap(size int) (Addr, error) {
	prevEnd := as.base
	for _, r := range as.regions {
		if r.start-prevEnd >= Addr(size) {
			return prevEnd, nil
		}
		prevEnd = r.End()
	}
	if as.limit-prevEnd >= Addr(size) {
		return prevEnd, nil
	}
	return 0, ErrNoSpace
}

func (as *AddressSpace) insertRegion(r *Region) {
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].start >= r.start
	})
	as.regions = as.sys.regions.grow(as.regions)
	copy(as.regions[i+1:], as.regions[i:])
	as.regions[i] = r
}

// dropLists hands the space's region list and moved-out queues back to
// the spares; the space maps nothing afterwards.
func (as *AddressSpace) dropLists() {
	for _, l := range []*[]*Region{&as.regions, &as.movedOutQ, &as.weakMovedOutQ} {
		as.sys.regions.put(*l)
		*l = nil
	}
}

// AllocRegion creates a region of the given length (rounded up to a page
// multiple) at the lowest free address. Movable regions start MovedIn
// and participate in the (weak) move semantics; unmovable regions model
// the heap and stack, where application-allocated buffers live.
func (as *AddressSpace) AllocRegion(length int, state RegionState) (*Region, error) {
	size := as.roundUp(length)
	if size == 0 {
		return nil, fmt.Errorf("vm: AllocRegion of zero length")
	}
	start, err := as.findGap(size)
	if err != nil {
		return nil, err
	}
	return as.allocRegionAt(start, size, state)
}

// AllocRegionAt creates a region at a caller-chosen page-aligned address.
func (as *AddressSpace) AllocRegionAt(start Addr, length int, state RegionState) (*Region, error) {
	if start != as.sys.pageFloor(start) {
		return nil, fmt.Errorf("vm: AllocRegionAt(%#x): unaligned start", start)
	}
	size := as.roundUp(length)
	for _, r := range as.regions {
		if start < r.End() && r.start < start+Addr(size) {
			return nil, fmt.Errorf("vm: AllocRegionAt(%#x): overlaps %v", start, r)
		}
	}
	return as.allocRegionAt(start, size, state)
}

func (as *AddressSpace) allocRegionAt(start Addr, size int, state RegionState) (*Region, error) {
	switch state {
	case Unmovable, MovedIn, MovingIn:
	default:
		return nil, fmt.Errorf("vm: cannot create region in state %v", state)
	}
	obj := as.sys.newObject()
	obj.ref()
	r := as.sys.regionSlab.next()
	*r = Region{as: as, start: start, length: size, state: state, object: obj}
	as.insertRegion(r)
	return r, nil
}

// MapObject creates a fresh region backed by an existing object — the
// "map region and mark moved in" step of input with move semantics
// (Table 3), where a system buffer's pages become the application's
// input buffer without copying.
func (as *AddressSpace) MapObject(obj *MemObject, length int, state RegionState) (*Region, error) {
	size := as.roundUp(length)
	start, err := as.findGap(size)
	if err != nil {
		return nil, err
	}
	obj.ref()
	r := as.sys.regionSlab.next()
	*r = Region{as: as, start: start, length: size, state: state, object: obj}
	as.insertRegion(r)
	// Eagerly map resident pages read-write: move-semantics input returns
	// a buffer the application may immediately access.
	for i := 0; i < r.Pages(); i++ {
		if f, holder := obj.lookup(i); f != nil && holder == obj {
			r.setPTE(i, PTE{Frame: f, Prot: ProtRW})
		}
	}
	return r, nil
}

// RemoveRegion unmaps the region and drops its object reference,
// releasing its pages (deferred past pending I/O). This is both the
// application-visible deallocation call and the dispose-time removal of
// move-semantics output.
func (as *AddressSpace) RemoveRegion(r *Region) error {
	if r.removed {
		return fmt.Errorf("vm: RemoveRegion: %v already removed", r)
	}
	i := sort.Search(len(as.regions), func(i int) bool {
		return as.regions[i].start >= r.start
	})
	if i >= len(as.regions) || as.regions[i] != r {
		return fmt.Errorf("vm: RemoveRegion: %v not in space %d", r, as.id)
	}
	as.regions = slices.Delete(as.regions, i, i+1)
	if as.last == r {
		as.last = nil
	}
	as.sys.tables.put(r.pt)
	r.pt = nil
	r.removed = true
	r.object.unref()
	return nil
}

// Peek copies length bytes at va into buf, performing application reads
// with full fault handling. It fails with ErrFault exactly where a real
// application would take an unrecoverable fault.
func (as *AddressSpace) Peek(va Addr, buf []byte) error {
	return as.access(va, buf, false)
}

// Poke stores buf at va, performing application writes with full fault
// handling — including TCOW and COW recovery.
func (as *AddressSpace) Poke(va Addr, data []byte) error {
	return as.access(va, data, true)
}

func (as *AddressSpace) access(va Addr, buf []byte, write bool) error {
	sys := as.sys
	off := 0
	for off < len(buf) {
		pageVA := sys.pageFloor(va + Addr(off))
		pgOff := int(va + Addr(off) - pageVA)
		n := min(sys.pageSize-pgOff, len(buf)-off)
		r := as.FindRegion(pageVA)
		pte, err := as.ensureMapped(r, pageVA, write)
		if err != nil {
			return err
		}
		if write {
			pte.Frame.WriteAt(pgOff, buf[off:off+n])
		} else {
			pte.Frame.ReadAt(buf[off:off+n], pgOff)
		}
		off += n
	}
	return nil
}

// PokeBuf is Poke for a data-plane buffer: on the symbolic plane the
// store is a descriptor splice per page instead of a byte copy. Fault
// handling is identical to Poke.
func (as *AddressSpace) PokeBuf(va Addr, b mem.Buf) error {
	sys := as.sys
	off := 0
	for off < b.Len() {
		pageVA := sys.pageFloor(va + Addr(off))
		pgOff := int(va + Addr(off) - pageVA)
		n := min(sys.pageSize-pgOff, b.Len()-off)
		r := as.FindRegion(pageVA)
		pte, err := as.ensureMapped(r, pageVA, true)
		if err != nil {
			return err
		}
		pte.Frame.WriteBufAt(pgOff, b, off, n)
		off += n
	}
	return nil
}

// PeekBuf is Peek returning a data-plane buffer: an independent
// materialized copy on the bytes plane, a one-pass O(#extents) run
// gather (mem.Buf.AppendFrame) on the symbolic plane. Fault handling
// is identical to Peek.
func (as *AddressSpace) PeekBuf(va Addr, length int) (mem.Buf, error) {
	// Reachable from the public facade with a caller-supplied length; a
	// negative value must be a returned error, not a make() panic.
	if length < 0 {
		return mem.Buf{}, fmt.Errorf("vm: PeekBuf length %d is negative", length)
	}
	if !as.sys.pm.Symbolic() {
		buf := make([]byte, length)
		if err := as.Peek(va, buf); err != nil {
			return mem.Buf{}, err
		}
		return mem.BufBytes(buf), nil
	}
	var out mem.Buf
	if err := as.PeekBufInto(&out, va, length); err != nil {
		return mem.Buf{}, err
	}
	return out, nil
}

// PeekBufInto is PeekBuf on the symbolic plane, appending the runs to
// *dst, which its owner builds with AppendFrame alone (a stage or a
// wire buffer), so the gather reuses dst's run storage.
func (as *AddressSpace) PeekBufInto(dst *mem.Buf, va Addr, length int) error {
	if length < 0 {
		return fmt.Errorf("vm: PeekBuf length %d is negative", length)
	}
	sys := as.sys
	off := 0
	for off < length {
		pageVA := sys.pageFloor(va + Addr(off))
		pgOff := int(va + Addr(off) - pageVA)
		n := min(sys.pageSize-pgOff, length-off)
		r := as.FindRegion(pageVA)
		pte, err := as.ensureMapped(r, pageVA, false)
		if err != nil {
			return err
		}
		dst.AppendFrame(pte.Frame, pgOff, n)
		off += n
	}
	return nil
}

// ReadPhys reads through the object chain regardless of page table state
// or protections. It is a debugging/verification aid for tests, not an
// application access path: unresident, non-paged-out bytes read as zero.
func (as *AddressSpace) ReadPhys(va Addr, buf []byte) error {
	sys := as.sys
	off := 0
	for off < len(buf) {
		cur := va + Addr(off)
		r := as.FindRegion(cur)
		if r == nil {
			return fmt.Errorf("%w: ReadPhys at %#x", ErrFault, cur)
		}
		pageVA := sys.pageFloor(cur)
		pgOff := int(cur - pageVA)
		n := min(sys.pageSize-pgOff, len(buf)-off)
		pi := r.pageIndex(cur)
		if f, _ := r.object.lookup(pi); f != nil {
			f.ReadAt(buf[off:off+n], pgOff)
		} else if holder, ok := r.object.pagedOut(pi); ok {
			holder.backing[pi].ReadAt(buf[off:off+n], pgOff)
		} else {
			clear(buf[off : off+n])
		}
		off += n
	}
	return nil
}

// RemoveWrite strips write permission from every mapped page overlapping
// [va, va+length) — the "read-only application pages" step of emulated
// copy output (Table 2). Unmapped pages are skipped: they cannot be
// written without a fault anyway.
func (as *AddressSpace) RemoveWrite(va Addr, length int) {
	sys := as.sys
	pageVA := sys.pageFloor(va)
	for i := 0; i < sys.pageCount(va, length); i++ {
		r := as.FindRegion(pageVA)
		if pte := r.pte(pageVA); pte.Frame != nil {
			pte.Prot &^= ProtWrite
			r.setPTE(r.slot(pageVA), pte)
		}
		pageVA += Addr(sys.pageSize)
	}
}

// Invalidate removes all access to every page overlapping the range —
// the "invalidate application pages" step of (emulated) move output.
func (as *AddressSpace) Invalidate(va Addr, length int) {
	sys := as.sys
	pageVA := sys.pageFloor(va)
	for i := 0; i < sys.pageCount(va, length); i++ {
		r := as.FindRegion(pageVA)
		r.clearPTE(pageVA)
		pageVA += Addr(sys.pageSize)
	}
}

// Reinstate restores read-write mappings for the resident pages of a
// region's range — the "reinstate page accesses" step of emulated move
// input (Table 3), undoing region hiding without any page copying.
func (as *AddressSpace) Reinstate(r *Region) {
	for i := 0; i < r.Pages(); i++ {
		if f, holder := r.object.lookup(i + r.objOff); f != nil {
			prot := ProtRW
			if holder != r.object {
				prot = ProtRead // COW page: keep write-protected
			}
			r.setPTE(i, PTE{Frame: f, Prot: prot})
		}
	}
}

// ensureMapped guarantees va's page is resident and mapped with read
// access, and write access if write is set (faulting it in if needed),
// and returns its entry. r is the region containing va, or nil.
func (as *AddressSpace) ensureMapped(r *Region, va Addr, write bool) (PTE, error) {
	pte := r.pte(va)
	if pte.Frame != nil && pte.Prot.CanRead() && (!write || pte.Prot.CanWrite()) {
		return pte, nil
	}
	if err := as.Fault(va, write); err != nil {
		return PTE{}, err
	}
	return r.pte(va), nil
}

// KernelSwapPage installs frame nf as the page backing pageVA, replacing
// whatever the region's top object held there, and returns the replaced
// frame (nil if the page was not resident in the top object). It is a
// kernel path: it does not require an existing writable mapping, and it
// works on hidden (moving-in) regions — it is the mechanism behind
// input page swapping into cached regions and unreferenced application
// buffers (Sections 5.2 and 6.2.2).
//
// The entire page's contents are replaced, so a COW-shared lower copy is
// simply shadowed by the new page, which is exactly the private-copy
// outcome a write fault would have produced.
func (as *AddressSpace) KernelSwapPage(pageVA Addr, nf *mem.Frame) (*mem.Frame, error) {
	sys := as.sys
	if pageVA != sys.pageFloor(pageVA) {
		return nil, fmt.Errorf("vm: KernelSwapPage(%#x): unaligned", pageVA)
	}
	r := as.FindRegion(pageVA)
	if r == nil || r.removed {
		return nil, fmt.Errorf("%w: KernelSwapPage at %#x", ErrFault, pageVA)
	}
	pi := r.pageIndex(pageVA)
	var old *mem.Frame
	if r.object.page(pi) != nil {
		old = r.object.swapPage(pi, nf)
	} else {
		if r.object.backing != nil {
			delete(r.object.backing, pi) // paged-out copy is obsolete
		}
		r.object.insertPage(pi, nf)
	}
	prot := ProtNone
	if pte := r.pte(pageVA); pte.Frame != nil {
		prot = pte.Prot
	}
	if r.state.Accessible() || prot != ProtNone {
		if prot == ProtNone {
			prot = ProtRW
		}
		r.setPTE(r.slot(pageVA), PTE{Frame: nf, Prot: prot | ProtRW})
	} else {
		r.clearPTE(pageVA)
	}
	return old, nil
}

// CopyRegionCOW copies [va, va+length) (page aligned) into a fresh
// region of dst, normally by building a copy-on-write shadow chain. If
// any object in the source chain has pending in-place input references,
// COW would silently become share semantics (DMA ignores write
// protection), so the copy is performed physically instead — Genie's
// input-disabled COW (Section 3.3).
func (as *AddressSpace) CopyRegionCOW(va Addr, length int, dst *AddressSpace) (*Region, error) {
	sys := as.sys
	if va != sys.pageFloor(va) || length != as.roundUp(length) {
		return nil, fmt.Errorf("vm: CopyRegionCOW(%#x,%d): unaligned", va, length)
	}
	src := as.FindRegion(va)
	if src == nil || !src.state.Accessible() {
		return nil, fmt.Errorf("%w: CopyRegionCOW at %#x", ErrFault, va)
	}
	if src.End() < va+Addr(length) {
		return nil, fmt.Errorf("vm: CopyRegionCOW: range leaves %v", src)
	}

	if src.object.chainHasInputRefs() {
		sys.stats.PhysRegionCopies++
		return as.copyRegionPhysical(src, va, length, dst)
	}
	sys.stats.COWRegionSetups++

	// Conventional COW: push a shadow object on top of the source
	// region's chain for each side, write-protect the source mappings.
	origin := src.object
	srcShadow := sys.newObject()
	srcShadow.shadow = origin
	srcShadow.ref()
	// The shadow chain keeps the origin alive; transfer src's reference.
	src.object = srcShadow

	dstShadow := sys.newObject()
	dstShadow.shadow = origin
	dstShadow.ref()
	origin.ref() // now referenced by both shadows; drop region's own ref below
	// origin had 1 ref (from src region); it is now referenced by two
	// shadows. Net: +1.

	as.RemoveWrite(va, length)

	size := dst.roundUp(length)
	start, err := dst.findGap(size)
	if err != nil {
		dstShadow.unref()
		return nil, err
	}
	nr := sys.regionSlab.next()
	*nr = Region{as: dst, start: start, length: size, state: Unmovable,
		object: dstShadow, objOff: int((va - src.start) / Addr(sys.pageSize))}
	dst.insertRegion(nr)
	return nr, nil
}

func (as *AddressSpace) copyRegionPhysical(src *Region, va Addr, length int, dst *AddressSpace) (*Region, error) {
	nr, err := dst.AllocRegion(length, Unmovable)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, length)
	if err := as.ReadPhys(va, buf); err != nil {
		_ = dst.RemoveRegion(nr)
		return nil, err
	}
	if err := dst.Poke(nr.start, buf); err != nil {
		_ = dst.RemoveRegion(nr)
		return nil, err
	}
	return nr, nil
}

// Fork clones the address space with copy semantics — the memory
// inheritance COW is frequently used for (Section 3.3). Every region is
// copied at the same virtual address: normally by shadow-chain COW, but
// regions with pending in-place input fall back to physical copies
// (input-disabled COW), and hidden (moved-out) regions are not inherited,
// matching their removed-like behaviour.
func (as *AddressSpace) Fork() (*AddressSpace, error) {
	child := as.sys.NewAddressSpace()
	for _, r := range append([]*Region(nil), as.regions...) {
		if !r.State().Accessible() {
			continue
		}
		state := r.State()
		nr, err := as.CopyRegionCOW(r.Start(), r.Len(), child)
		if err != nil {
			return nil, fmt.Errorf("vm: fork of %v: %w", r, err)
		}
		// CopyRegionCOW places the copy at the lowest gap; forking wants
		// identity addresses. Relocate by rewriting the region record —
		// the child is empty except for regions this loop created, so
		// the original address range is free unless an earlier copy took
		// it (impossible: copies are processed in ascending order and
		// relocated immediately).
		if nr.Start() != r.Start() {
			if err := child.relocate(nr, r.Start()); err != nil {
				return nil, err
			}
		}
		nr.state = state
	}
	return child, nil
}

// relocate moves a region to a new base address. Its page table
// entries are indexed by page within the region, so they move with it.
func (as *AddressSpace) relocate(r *Region, newStart Addr) error {
	for _, other := range as.regions {
		if other != r && newStart < other.End() && other.start < newStart+Addr(r.length) {
			return fmt.Errorf("vm: relocate: %v overlaps %v", r, other)
		}
	}
	// Remove and reinsert to keep the region slice sorted.
	for i, other := range as.regions {
		if other == r {
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			break
		}
	}
	r.start = newStart
	as.insertRegion(r)
	return nil
}

// CheckInvariants verifies page-table/object consistency for the space.
func (as *AddressSpace) CheckInvariants() error {
	ps := Addr(as.sys.pageSize)
	for _, r := range as.regions {
		if r.pt != nil && len(r.pt) != r.Pages() {
			return fmt.Errorf("vm: %v has %d page table entries for %d pages", r, len(r.pt), r.Pages())
		}
		for i, pte := range r.pt {
			if pte.Frame == nil {
				continue
			}
			va := r.start + Addr(i)*ps
			if pte.Frame.Free() {
				return fmt.Errorf("vm: PTE at %#x maps free frame %v", va, pte.Frame)
			}
			f, _ := r.object.lookup(r.objOff + i)
			if f == nil {
				return fmt.Errorf("vm: PTE at %#x maps frame absent from object chain", va)
			}
			if f != pte.Frame {
				return fmt.Errorf("vm: PTE at %#x maps %v but chain holds %v", va, pte.Frame, f)
			}
		}
	}
	for i := 1; i < len(as.regions); i++ {
		if as.regions[i-1].End() > as.regions[i].start {
			return fmt.Errorf("vm: overlapping regions %v and %v", as.regions[i-1], as.regions[i])
		}
	}
	return nil
}
