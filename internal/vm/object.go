package vm

import (
	"fmt"

	"repro/internal/mem"
)

// MemObject is a memory object in the Mach sense: an ordered collection
// of pages backing one or more regions, optionally shadowing another
// object for copy-on-write.
//
// The object-level InputRefs count implements input-disabled COW
// (Section 3.3): while any page of the object is the target of a pending
// in-place input, setting up COW on the object would actually yield share
// semantics (DMA writes bypass write protection), so region copies fall
// back to physical copying.
type MemObject struct {
	sys       *System
	id        int
	pages     []*mem.Frame // frame by page index within object, nil when not resident
	resident  int          // non-nil entries of pages
	shadow    *MemObject   // next object in the COW chain, or nil
	stale     bool         // dropped by System.Reset: inserting a page panics
	noPageout bool         // the pageout daemon never takes its pages

	inputRefs int             // pending in-place input references (Section 3.3)
	backing   map[int]mem.Buf // simulated backing store for paged-out pages
	refs      int             // regions referencing this object
}

func (sys *System) newObject() *MemObject {
	o := sys.objectSlab.next()
	sys.register(o)
	return o
}

// register makes the zero object o live under the next id.
func (sys *System) register(o *MemObject) {
	sys.objects = append(sys.objects, o)
	o.sys, o.id = sys, len(sys.objects)
}

// ID returns the object's identifier (unique within its System).
func (o *MemObject) ID() int { return o.id }

// InputRefs returns the object's pending in-place input reference count.
func (o *MemObject) InputRefs() int { return o.inputRefs }

// ResidentPages returns the number of pages resident in this object
// (not counting its shadow chain).
func (o *MemObject) ResidentPages() int { return o.resident }

// page returns the frame of page pi in this object alone, or nil.
func (o *MemObject) page(pi int) *mem.Frame {
	if uint(pi) < uint(len(o.pages)) {
		return o.pages[pi]
	}
	return nil
}

// chainHasInputRefs reports whether this object or any object it shadows
// has pending input references. This is the input-disabled COW test.
func (o *MemObject) chainHasInputRefs() bool {
	for obj := o; obj != nil; obj = obj.shadow {
		if obj.inputRefs > 0 {
			return true
		}
	}
	return false
}

// lookup finds the page at index pi, searching the shadow chain top-down.
// It returns the frame and the object that holds it, or (nil, nil).
func (o *MemObject) lookup(pi int) (*mem.Frame, *MemObject) {
	for obj := o; obj != nil; obj = obj.shadow {
		if f := obj.page(pi); f != nil {
			return f, obj
		}
	}
	return nil, nil
}

// pagedOut reports whether page pi resides on the simulated backing
// store somewhere in the chain, returning the holder.
func (o *MemObject) pagedOut(pi int) (*MemObject, bool) {
	for obj := o; obj != nil; obj = obj.shadow {
		if obj.backing != nil {
			if _, ok := obj.backing[pi]; ok {
				return obj, true
			}
		}
		if obj.page(pi) != nil {
			return nil, false // resident copy wins
		}
	}
	return nil, false
}

// ExcludeFromPageout keeps the pageout daemon away from a kernel
// object's pages. An owner that indexes its pages itself (the page
// cache) sets it, because a reclaimed frame would stay in its index;
// such an owner frees pages only by its own policy.
func (o *MemObject) ExcludeFromPageout() { o.noPageout = true }

// InsertKernelPage attaches frame f as page pi of a kernel-owned object
// — how system buffers hand their pages to a region about to be mapped
// into an application (move-semantics input).
func (o *MemObject) InsertKernelPage(pi int, f *mem.Frame) { o.insertPage(pi, f) }

// RemoveKernelPage detaches page pi from a kernel-owned object and
// returns its frame (nil if not resident) without releasing it — the
// donation and eviction primitive of the page cache: a detached frame
// either moves to an application region (page-flip reads) or goes back
// to physical memory.
func (o *MemObject) RemoveKernelPage(pi int) *mem.Frame { return o.removePage(pi) }

// insertPage attaches frame f as page pi of the object, growing the
// page slots to cover pi: slots past the length are nil up to the
// capacity, and beyond it the slots move to a spare slice of the next
// size class that covers pi. The frame must already be allocated
// (attached) in physical memory.
func (o *MemObject) insertPage(pi int, f *mem.Frame) {
	if o.stale {
		panic(fmt.Sprintf("vm: object %d used after System.Reset", o.id))
	}
	if old := o.page(pi); old != nil {
		panic(fmt.Sprintf("vm: object %d already has page %d (%v)", o.id, pi, old))
	}
	if pi >= cap(o.pages) {
		grown := o.sys.pages.take(pi + 1)
		copy(grown, o.pages)
		o.sys.pages.put(o.pages)
		o.pages = grown
	} else if pi >= len(o.pages) {
		o.pages = o.pages[:pi+1]
	}
	o.pages[pi] = f
	o.resident++
}

// swapPage replaces page pi with frame nf and returns the old frame,
// which remains allocated but no longer belongs to the object. This is
// the "swapping pages in the memory object" step of both TCOW recovery
// (Section 5.1) and input page swapping (Section 5.2).
func (o *MemObject) swapPage(pi int, nf *mem.Frame) *mem.Frame {
	old := o.page(pi)
	if old == nil {
		panic(fmt.Sprintf("vm: object %d swap of nonresident page %d", o.id, pi))
	}
	o.pages[pi] = nf
	return old
}

// removePage detaches page pi without freeing its frame.
func (o *MemObject) removePage(pi int) *mem.Frame {
	f := o.page(pi)
	if f == nil {
		return nil
	}
	o.pages[pi] = nil
	o.resident--
	return f
}

// destroy releases every resident page of the object in ascending page
// order (deferred while I/O references remain), returns its page slots
// to the spare lists and drops backing-store copies. Shadow objects are
// released recursively when their reference count drops to zero.
func (o *MemObject) destroy() {
	for pi, f := range o.pages {
		if f != nil {
			o.pages[pi] = nil
			o.sys.pm.Release(f)
		}
	}
	o.sys.pages.put(o.pages)
	o.pages, o.resident = nil, 0
	o.backing = nil
	if o.shadow != nil {
		o.shadow.unref()
		o.shadow = nil
	}
	// A stale object (dropped by Reset) must not clear a live one that
	// took its id.
	if objs, i := o.sys.objects, o.id-1; i < len(objs) && objs[i] == o {
		objs[i] = nil
	}
}

func (o *MemObject) ref() { o.refs++ }

func (o *MemObject) unref() {
	o.refs--
	if o.refs <= 0 {
		o.destroy()
	}
}

// refInput records a pending in-place input on the object. Paired with
// unrefInput at I/O completion; both are integrated with page
// referencing (Section 3.3).
func (o *MemObject) refInput() { o.inputRefs++ }

func (o *MemObject) unrefInput() {
	if o.inputRefs <= 0 {
		panic(fmt.Sprintf("vm: object %d input unref underflow", o.id))
	}
	o.inputRefs--
}
