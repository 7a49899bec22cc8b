package vm

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// Region is a contiguous, page-aligned range of virtual addresses backed
// by a memory object.
type Region struct {
	as      *AddressSpace
	start   Addr
	length  int // bytes, page multiple
	state   RegionState
	object  *MemObject
	objOff  int   // page index of region page 0 within the object
	pt      []PTE // page table entries by page, nil until the first mapping
	removed bool
}

// Start returns the region's first virtual address.
func (r *Region) Start() Addr { return r.start }

// Len returns the region's length in bytes.
func (r *Region) Len() int { return r.length }

// End returns the first address past the region.
func (r *Region) End() Addr { return r.start + Addr(r.length) }

// State returns the region's state.
func (r *Region) State() RegionState { return r.state }

// Object returns the backing memory object.
func (r *Region) Object() *MemObject { return r.object }

// Space returns the owning address space.
func (r *Region) Space() *AddressSpace { return r.as }

// Removed reports whether the region has been removed from its space.
func (r *Region) Removed() bool { return r.removed }

// Pages returns the number of pages in the region.
func (r *Region) Pages() int { return r.length / r.as.sys.pageSize }

func (r *Region) String() string {
	return fmt.Sprintf("region [%#x,%#x) %s obj=%d", r.start, r.End(), r.state, r.object.id)
}

// contains reports whether va lies inside the region.
func (r *Region) contains(va Addr) bool { return va >= r.start && va < r.End() }

// pageIndex maps a virtual address inside the region to its page index
// within the backing object.
func (r *Region) pageIndex(va Addr) int { return r.slot(va) + r.objOff }

// slot maps a virtual address inside the region to its page within the
// region, the index of its page table entry.
func (r *Region) slot(va Addr) int { return int((va - r.start) / Addr(r.as.sys.pageSize)) }

// pte returns the entry mapping va, which lies in r; an unmapped page's
// entry has a nil Frame. A nil region maps nothing.
func (r *Region) pte(va Addr) PTE {
	if r == nil || r.pt == nil {
		return PTE{}
	}
	return r.pt[r.slot(va)]
}

// setPTE maps page i of the region, taking the region's table from the
// system's spares on its first mapping. Mapping a page of a space
// dropped by System.Reset panics instead of aliasing a live one.
func (r *Region) setPTE(i int, pte PTE) {
	if r.pt == nil {
		if r.as.stale {
			panic(fmt.Sprintf("vm: address space %d used after System.Reset", r.as.id))
		}
		r.pt = r.as.sys.tables.take(r.Pages())
	}
	r.pt[i] = pte
}

// clearPTE unmaps va's page, which lies in r (a nil region maps
// nothing).
func (r *Region) clearPTE(va Addr) {
	if r != nil && r.pt != nil {
		r.pt[r.slot(va)] = PTE{}
	}
}

// setState transitions the region state, enforcing the legal transitions
// of the paper's state machine.
func (r *Region) setState(from, to RegionState) error {
	if r.state != from {
		return fmt.Errorf("%w: %v: want %v -> %v", ErrBadRegion, r, from, to)
	}
	r.state = to
	r.as.sys.emit(regionTraceNames[to], r.length)
	return nil
}

// MarkMovingOut begins output with a system-allocated semantics
// (Tables 2): only moved-in regions may be moved out, because removing
// pieces of unmovable regions (heap, stack) would open inconsistent gaps.
func (r *Region) MarkMovingOut() error { return r.setState(MovedIn, MovingOut) }

// MarkMovedOut completes output with emulated move semantics: the region
// stays allocated but hidden (region hiding, Section 4), and is enqueued
// for reuse by a later input (region caching).
func (r *Region) MarkMovedOut() error {
	if err := r.setState(MovingOut, MovedOut); err != nil {
		return err
	}
	r.as.movedOutQ = r.as.sys.regions.grow(r.as.movedOutQ)
	r.as.movedOutQ[len(r.as.movedOutQ)-1] = r
	return nil
}

// MarkWeaklyMovedOut completes output with (emulated) weak move
// semantics: the region stays mapped but its contents are indeterminate
// until the system reuses it for input.
func (r *Region) MarkWeaklyMovedOut() error {
	if err := r.setState(MovingOut, WeaklyMovedOut); err != nil {
		return err
	}
	r.as.weakMovedOutQ = r.as.sys.regions.grow(r.as.weakMovedOutQ)
	r.as.weakMovedOutQ[len(r.as.weakMovedOutQ)-1] = r
	return nil
}

// AdoptFrames installs frames as pages 0..len(frames)-1 of the region's
// backing object, rescuing pending-free frames (released mid-I/O) back
// into the attached state. It is the recovery path for cached input
// regions removed by the application during input: the in-flight pages
// are re-homed so the input completes into a valid region.
func (r *Region) AdoptFrames(frames []*mem.Frame) error {
	if len(frames) > r.Pages() {
		return fmt.Errorf("vm: AdoptFrames: %d frames exceed %v", len(frames), r)
	}
	pm := r.as.sys.pm
	for i, f := range frames {
		if f.PendingFree() {
			pm.Reattach(f)
		}
		r.object.insertPage(i+r.objOff, f)
	}
	return nil
}

// AbortMoveOut rolls a failed output preparation back to moved in.
func (r *Region) AbortMoveOut() error { return r.setState(MovingOut, MovedIn) }

// MarkMovingIn claims the region for a pending input operation.
func (r *Region) MarkMovingIn() error {
	switch r.state {
	case MovedOut, WeaklyMovedOut:
		r.state = MovingIn
		r.as.sys.emit(regionTraceNames[MovingIn], r.length)
		return nil
	}
	return fmt.Errorf("%w: %v: MarkMovingIn", ErrBadRegion, r)
}

// AbortMoveIn returns a moving-in region to its cache queue when the
// pending input is cancelled, restoring the state it was dequeued from.
func (r *Region) AbortMoveIn(weak bool) error {
	if err := r.setState(MovingIn, MovingOut); err != nil {
		return err
	}
	if weak {
		return r.MarkWeaklyMovedOut()
	}
	return r.MarkMovedOut()
}

// MarkMovedIn completes an input, making the region accessible again.
func (r *Region) MarkMovedIn() error {
	switch r.state {
	case MovingIn, MovedIn:
		r.state = MovedIn
		r.as.sys.emit(regionTraceNames[MovedIn], r.length)
		return nil
	}
	return fmt.Errorf("%w: %v: MarkMovedIn", ErrBadRegion, r)
}

// Wire faults in and wires every page of [va, va+length) within the
// region, the traditional pageout protection used by the non-emulated
// share, move, and weak move semantics.
func (as *AddressSpace) WireRange(va Addr, length int) error {
	sys := as.sys
	pages := sys.pageCount(va, length)
	pageVA := sys.pageFloor(va)
	for i := 0; i < pages; i++ {
		r := as.FindRegion(pageVA)
		pte, err := as.ensureMapped(r, pageVA, false)
		if err != nil {
			return err
		}
		sys.pm.Wire(pte.Frame)
		pageVA += Addr(sys.pageSize)
	}
	return nil
}

// UnwireRange undoes WireRange.
func (as *AddressSpace) UnwireRange(va Addr, length int) error {
	sys := as.sys
	pages := sys.pageCount(va, length)
	pageVA := sys.pageFloor(va)
	for i := 0; i < pages; i++ {
		r := as.FindRegion(pageVA)
		pte := r.pte(pageVA)
		if pte.Frame == nil {
			return fmt.Errorf("vm: unwire of unmapped page %#x", pageVA)
		}
		sys.pm.Unwire(pte.Frame)
		pageVA += Addr(sys.pageSize)
	}
	return nil
}

// DequeueCached removes and returns a cached region of exactly the given
// length from the moved-out (weak=false) or weakly-moved-out (weak=true)
// queue, or nil if none is available. Regions removed by the application
// while cached are skipped and dropped.
func (as *AddressSpace) DequeueCached(length int, weak bool) *Region {
	q := &as.movedOutQ
	if weak {
		q = &as.weakMovedOutQ
	}
	for i, r := range *q {
		if r.removed {
			continue
		}
		if r.length == length {
			*q = slices.Delete(*q, i, i+1)
			// Compact any removed regions left at the front.
			return r
		}
	}
	return nil
}

// CachedRegions returns the number of reusable regions in the queue.
func (as *AddressSpace) CachedRegions(weak bool) int {
	q := as.movedOutQ
	if weak {
		q = as.weakMovedOutQ
	}
	n := 0
	for _, r := range q {
		if !r.removed {
			n++
		}
	}
	return n
}
