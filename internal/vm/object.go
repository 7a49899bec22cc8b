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
	sys    *System
	id     int
	pages  map[int]*mem.Frame // page index within object -> frame
	shadow *MemObject         // next object in the COW chain, or nil

	inputRefs int             // pending in-place input references (Section 3.3)
	backing   map[int]mem.Buf // simulated backing store for paged-out pages
	refs      int             // regions referencing this object
}

func (sys *System) newObject() *MemObject {
	sys.nextObjID++
	o := &MemObject{
		sys:   sys,
		id:    sys.nextObjID,
		pages: takeSpare(&sys.sparePages),
	}
	sys.objects[o.id] = o
	return o
}

// ID returns the object's identifier (unique within its System).
func (o *MemObject) ID() int { return o.id }

// Shadow returns the next object in the COW chain, or nil.
func (o *MemObject) Shadow() *MemObject { return o.shadow }

// InputRefs returns the object's pending in-place input reference count.
func (o *MemObject) InputRefs() int { return o.inputRefs }

// ResidentPages returns the number of pages resident in this object
// (not counting its shadow chain).
func (o *MemObject) ResidentPages() int { return len(o.pages) }

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
		if f, ok := obj.pages[pi]; ok {
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
		if _, ok := obj.pages[pi]; ok {
			return nil, false // resident copy wins
		}
	}
	return nil, false
}

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

// insertPage attaches frame f as page pi of the object. The frame must
// already be allocated (attached) in physical memory.
func (o *MemObject) insertPage(pi int, f *mem.Frame) {
	if old, ok := o.pages[pi]; ok {
		panic(fmt.Sprintf("vm: object %d already has page %d (%v)", o.id, pi, old))
	}
	o.pages[pi] = f
}

// swapPage replaces page pi with frame nf and returns the old frame,
// which remains allocated but no longer belongs to the object. This is
// the "swapping pages in the memory object" step of both TCOW recovery
// (Section 5.1) and input page swapping (Section 5.2).
func (o *MemObject) swapPage(pi int, nf *mem.Frame) *mem.Frame {
	old, ok := o.pages[pi]
	if !ok {
		panic(fmt.Sprintf("vm: object %d swap of nonresident page %d", o.id, pi))
	}
	o.pages[pi] = nf
	return old
}

// removePage detaches page pi without freeing its frame.
func (o *MemObject) removePage(pi int) *mem.Frame {
	f, ok := o.pages[pi]
	if !ok {
		return nil
	}
	delete(o.pages, pi)
	return f
}

// destroy releases every resident page of the object (deferred while I/O
// references remain) and drops backing-store copies. Shadow objects are
// released recursively when their reference count drops to zero.
func (o *MemObject) destroy() {
	for pi, f := range o.pages {
		delete(o.pages, pi)
		o.sys.pm.Release(f)
	}
	o.backing = nil
	if o.shadow != nil {
		o.shadow.unref()
		o.shadow = nil
	}
	delete(o.sys.objects, o.id)
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
