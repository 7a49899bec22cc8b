package vm

import (
	"fmt"

	"repro/internal/mem"
)

// Extent is a piece of an I/O buffer resolved to physical memory: Len
// bytes starting Off bytes into Frame. A sequence of extents is the
// descriptor a device DMA engine consumes.
type Extent struct {
	Frame *mem.Frame
	Off   int
	Len   int
}

// refEntry pairs a referenced frame with the object whose input count it
// raised (nil for output references).
type refEntry struct {
	frame *mem.Frame
	obj   *MemObject
}

// IORef is the result of page referencing (Section 3.1): an I/O request
// descriptor with the request's physical extents, holding input or
// output references on every page it covers. Dropping the references via
// Unreference completes any I/O-deferred deallocation. A one-page
// request keeps its extent and entry in the IORef itself, so
// referencing it allocates at most the IORef; an owner that holds one
// request at a time embeds its IORef and refills it with the Into
// variants, which allocate nothing for one page. An IORef points into
// itself and must not be copied.
type IORef struct {
	sys     *System
	input   bool
	extents []Extent
	entries []refEntry
	done    bool

	oneExtent [1]Extent   // extents' backing store for one page
	oneEntry  [1]refEntry // entries' backing store for one page
}

// init empties ref for a new request whose first page is stored
// inline.
func (ref *IORef) init(sys *System, input bool) {
	*ref = IORef{sys: sys, input: input}
	ref.extents = ref.oneExtent[:0]
	ref.entries = ref.oneEntry[:0]
}

// ReferenceRangeInto performs Genie's page referencing on
// [va, va+length) into the caller's ref: it verifies access rights
// (faulting pages in as needed — for input this demands write access,
// which automatically resolves COW into a private writable copy, per
// Section 3.3), builds the physical extent descriptor, and raises input
// or output reference counts. ref's earlier references, if any, must
// have been dropped. On error ref holds no references.
func (as *AddressSpace) ReferenceRangeInto(ref *IORef, va Addr, length int, input bool) error {
	sys := as.sys
	ref.init(sys, input)
	if length <= 0 {
		ref.done = true
		return fmt.Errorf("vm: ReferenceRange(%#x, %d): empty range", va, length)
	}
	off := 0
	for off < length {
		cur := va + Addr(off)
		pageVA := sys.pageFloor(cur)
		pgOff := int(cur - pageVA)
		n := min(sys.pageSize-pgOff, length-off)

		r := as.FindRegion(cur)
		if r == nil || !r.state.Accessible() {
			ref.rollback()
			return fmt.Errorf("%w: ReferenceRange at %#x", ErrFault, cur)
		}
		if err := as.ensureMapped(pageVA, input); err != nil {
			ref.rollback()
			return err
		}
		pte := as.pt[pageVA]
		if input {
			sys.pm.RefInput(pte.Frame)
			r.object.refInput()
			ref.entries = append(ref.entries, refEntry{pte.Frame, r.object})
		} else {
			sys.pm.RefOutput(pte.Frame)
			ref.entries = append(ref.entries, refEntry{pte.Frame, nil})
		}
		ref.extents = append(ref.extents, Extent{Frame: pte.Frame, Off: pgOff, Len: n})
		off += n
	}
	return nil
}

// ReferenceRegionInto references a whole moved-in region for input
// reuse — the prepare step of (emulated) (weak) move input — into the
// caller's ref, under ReferenceRangeInto's rules.
func (as *AddressSpace) ReferenceRegionInto(ref *IORef, r *Region, length int, input bool) error {
	sys := as.sys
	ref.init(sys, input)
	ps := sys.pageSize
	pages := sys.pageCount(r.start, length)
	for i := 0; i < pages; i++ {
		pi := r.objOff + i
		f, holder := r.object.lookup(pi)
		if f == nil || holder != r.object {
			// Fault the page into the top object directly: the region is
			// hidden, so the application fault path would refuse.
			nf, err := allocPrivate(sys, r.object, pi, f)
			if err != nil {
				ref.rollback()
				return err
			}
			f = nf
		}
		n := min(ps, length-i*ps)
		if input {
			sys.pm.RefInput(f)
			r.object.refInput()
			ref.entries = append(ref.entries, refEntry{f, r.object})
		} else {
			sys.pm.RefOutput(f)
			ref.entries = append(ref.entries, refEntry{f, nil})
		}
		ref.extents = append(ref.extents, Extent{Frame: f, Off: 0, Len: n})
	}
	return nil
}

// allocPrivate materializes page pi privately in obj, copying from a
// lower-chain frame if one exists, else from backing store, else zeroed.
func allocPrivate(sys *System, obj *MemObject, pi int, lower *mem.Frame) (*mem.Frame, error) {
	if holder, ok := obj.pagedOut(pi); ok && holder == obj {
		nf, err := sys.pm.Alloc()
		if err != nil {
			return nil, err
		}
		nf.LoadBuf(holder.backing[pi])
		delete(holder.backing, pi)
		obj.insertPage(pi, nf)
		sys.stats.PageIns++
		return nf, nil
	}
	nf, err := sys.pm.AllocZeroed()
	if err != nil {
		return nil, err
	}
	if lower != nil {
		nf.CopyFrom(lower)
	}
	obj.insertPage(pi, nf)
	return nf, nil
}

// Extents returns the physical extent descriptor for the request.
func (ref *IORef) Extents() []Extent { return ref.extents }

// Pages returns the number of referenced pages.
func (ref *IORef) Pages() int { return len(ref.entries) }

// Frames returns the referenced frames, one per extent.
func (ref *IORef) Frames() []*mem.Frame {
	fs := make([]*mem.Frame, len(ref.entries))
	for i, e := range ref.entries {
		fs[i] = e.frame
	}
	return fs
}

// Len returns the total byte length of the referenced extents.
func (ref *IORef) Len() int {
	n := 0
	for _, e := range ref.extents {
		n += e.Len
	}
	return n
}

// Unreference drops the references taken by ReferenceRangeInto,
// completing any deallocation deferred during the I/O. It is idempotent
// so error paths can call it defensively.
func (ref *IORef) Unreference() {
	if ref.done {
		return
	}
	ref.done = true
	for _, e := range ref.entries {
		if ref.input {
			ref.sys.pm.UnrefInput(e.frame)
			e.obj.unrefInput()
		} else {
			ref.sys.pm.UnrefOutput(e.frame)
		}
	}
}

// rollback undoes a partially constructed reference set.
func (ref *IORef) rollback() { ref.Unreference() }

// DMAWrite models a device storing data into the referenced extents,
// starting at byte offset off within the request. It bypasses page
// tables and protections entirely, exactly like hardware DMA — this is
// why COW must be input-disabled (Section 3.3). On the symbolic plane
// the store is a descriptor splice, not a byte copy.
func (ref *IORef) DMAWrite(off int, data mem.Buf) {
	pos, dOff := 0, 0
	remaining := data.Len()
	for _, e := range ref.extents {
		if off < pos+e.Len && remaining > 0 {
			start := max(off-pos, 0)
			n := min(e.Len-start, remaining)
			e.Frame.WriteBufAt(e.Off+start, data, dOff, n)
			dOff += n
			remaining -= n
			off += n
		}
		pos += e.Len
	}
	if remaining > 0 {
		panic(fmt.Sprintf("vm: DMAWrite overruns request by %d bytes", remaining))
	}
}

// DMARead models a device loading data from the referenced extents.
func (ref *IORef) DMARead(off int, buf []byte) {
	pos := 0
	for _, e := range ref.extents {
		if off < pos+e.Len && len(buf) > 0 {
			start := max(off-pos, 0)
			n := min(e.Len-start, len(buf))
			e.Frame.ReadAt(buf[:n], e.Off+start)
			buf = buf[n:]
			off += n
		}
		pos += e.Len
	}
	if len(buf) > 0 {
		panic(fmt.Sprintf("vm: DMARead overruns request by %d bytes", len(buf)))
	}
}

// DMAReadBuf is DMARead returning a buffer: a materialized copy in a
// wire buffer (mem.GetWire) on the bytes plane, a one-pass O(#extents)
// run gather (mem.Buf.AppendFrame) on the symbolic plane. Either way
// the result is an independent snapshot — it stays valid after the
// request's frames are released or overwritten. A bytes-plane snapshot
// handed to the adapter as a wire buffer returns to the pool once the
// receiver has copied it out; any other holder simply leaves it to the
// garbage collector.
func (ref *IORef) DMAReadBuf(off, n int) mem.Buf {
	if len(ref.extents) == 0 || !ref.extents[0].Frame.Symbolic() {
		out := mem.GetWire(n)
		ref.DMARead(off, out)
		return mem.BufBytes(out)
	}
	var out mem.Buf
	pos := 0
	for _, e := range ref.extents {
		if off < pos+e.Len && n > 0 {
			start := max(off-pos, 0)
			k := min(e.Len-start, n)
			out.AppendFrame(e.Frame, e.Off+start, k)
			n -= k
			off += k
		}
		pos += e.Len
	}
	if n > 0 {
		panic(fmt.Sprintf("vm: DMAReadBuf overruns request by %d bytes", n))
	}
	return out
}
