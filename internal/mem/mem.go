// Package mem simulates the physical memory of a machine: a fixed set of
// page frames managed through a free list.
//
// It implements the safety mechanism at the heart of Genie's in-place I/O
// (Brustoloni & Steenkiste, OSDI '96, Section 3.1): every frame carries
// counts of input and output references held by in-flight I/O operations,
// and page deallocation is deferred while either count is nonzero
// (I/O-deferred page deallocation). A frame released during I/O is only
// returned to the free list when its last reference is dropped, so it can
// never be reallocated to another process while a device is still reading
// from or writing into it.
package mem

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/stats"
)

// ErrOutOfMemory is returned by Alloc when no free frames remain.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// FrameID identifies a physical page frame.
type FrameID int

// Frame is one physical page frame.
//
// A frame is in exactly one of three states:
//   - free: on the free list, available for allocation;
//   - attached: allocated and owned by a memory object;
//   - pending free: detached from its owner while I/O references were
//     still outstanding; it joins the free list when the last reference
//     is dropped.
type Frame struct {
	id   FrameID
	data []byte // materialized contents (Bytes plane), nil until first written
	runs []Run  // provenance runs covering [0, size) (Symbolic plane)
	size int    // page size, set at first allocation

	inRefs  int // references held by in-flight input operations
	outRefs int // references held by in-flight output operations
	wired   int // wire counts (traditional pageout protection)

	free     bool
	attached bool // currently owned by a memory object
	pristine bool // data freshly materialized (all zero), never handed out
}

// ID returns the frame's identifier.
func (f *Frame) ID() FrameID { return f.id }

// Data returns the frame's backing bytes. The slice aliases the frame:
// writes through it model DMA or CPU stores into physical memory, so
// Data materializes the backing store of an allocated frame that has
// not been written yet. A frame that has never been allocated returns
// nil. On the symbolic plane frames have no materialized bytes and Data
// is always nil; use the plane-agnostic accessors (ReadAt, WriteBuf,
// ...) instead.
func (f *Frame) Data() []byte {
	if f.runs == nil && f.size > 0 {
		f.touch()
	}
	return f.data
}

// touch materializes a bytes-plane frame's backing store on its first
// write. Until then the frame reads as zeros, which is what a fresh
// backing store holds.
func (f *Frame) touch() {
	if f.data == nil {
		f.data = make([]byte, f.size)
	}
}

// Size returns the frame size in bytes (0 before first allocation).
func (f *Frame) Size() int { return f.size }

// Symbolic reports whether the frame carries provenance runs instead
// of materialized bytes.
func (f *Frame) Symbolic() bool { return f.runs != nil }

// WriteBuf overwrites frame bytes [off, off+b.Len()) with b.
func (f *Frame) WriteBuf(off int, b Buf) { f.WriteBufAt(off, b, 0, b.Len()) }

// WriteBufAt overwrites frame bytes [off, off+n) with bytes
// [boff, boff+n) of b, so a scatter writes each page's window of its
// source without slicing it first. On the bytes plane this resolves
// the window into the backing store; on the symbolic plane it splices
// the window's runs in. A materialized b written into a symbolic frame
// is cloned (the caller may recycle its storage), while run-backed
// buffers are spliced by reference — runs are immutable. A frame's run
// list is its own (every reader gets a copy), so every write rebuilds
// it in its existing storage.
func (f *Frame) WriteBufAt(off int, b Buf, boff, n int) {
	if off < 0 || n < 0 || off+n > f.size {
		panic(fmt.Sprintf("mem: WriteBuf(%d..%d) overruns %d-byte frame", off, off+n, f.size))
	}
	if boff < 0 || boff+n > b.n {
		panic(fmt.Sprintf("mem: WriteBuf of bytes %d..%d from %d-byte buffer", boff, boff+n, b.n))
	}
	if n == 0 {
		return
	}
	if f.runs == nil {
		f.touch()
		b.ReadAt(f.data[off:off+n], boff)
		return
	}
	if b.bytes != nil {
		lit := [1]Run{{Src: SrcLiteral, Len: n, lit: bytes.Clone(b.bytes[boff : boff+n])}}
		f.splice(off, n, lit[:], 0)
		return
	}
	f.splice(off, n, b.runs, boff)
}

// splice overwrites frame bytes [off, off+n) of a symbolic frame with
// bytes [insOff, insOff+n) of the run list ins. The new list is built
// in a stack array and copied into the frame's own run storage, so a
// write that leaves the page at most stackRuns runs allocates nothing
// once that storage has grown to fit.
func (f *Frame) splice(off, n int, ins []Run, insOff int) {
	if n == f.size {
		f.runs = appendSlice(f.runs[:0], ins, insOff, n)
		return
	}
	var w [stackRuns]Run
	out := appendSlice(w[:0], f.runs, 0, off)
	out = appendSlice(out, ins, insOff, n)
	out = appendSlice(out, f.runs, off+n, f.size-off-n)
	f.runs = append(f.runs[:0], out...)
}

// ReadBuf returns frame bytes [off, off+n) as a buffer. On the bytes
// plane the result is an independent copy (callers may hold it across
// later frame writes); on the symbolic plane it is an O(#runs) slice
// of immutable runs, independent for the same reason.
func (f *Frame) ReadBuf(off, n int) Buf {
	if off < 0 || off+n > f.size {
		panic(fmt.Sprintf("mem: ReadBuf(%d..%d) overruns %d-byte frame", off, off+n, f.size))
	}
	if n == 0 {
		return Buf{}
	}
	if f.runs == nil {
		out := make([]byte, n)
		if f.data != nil {
			copy(out, f.data[off:])
		}
		return BufBytes(out)
	}
	return Buf{n: n, runs: sliceRuns(f.runs, off, n)}
}

// WriteAt overwrites frame bytes [off, off+len(p)) with p, cloning p
// on the symbolic plane (copy-on-store keeps literal runs immutable).
func (f *Frame) WriteAt(off int, p []byte) {
	f.WriteBuf(off, BufBytes(p))
}

// ReadAt resolves frame bytes [off, off+len(p)) into p.
func (f *Frame) ReadAt(p []byte, off int) {
	if off < 0 || off+len(p) > f.size {
		panic(fmt.Sprintf("mem: ReadAt(%d..%d) overruns %d-byte frame", off, off+len(p), f.size))
	}
	if f.runs == nil {
		if f.data == nil {
			clear(p)
		} else {
			copy(p, f.data[off:])
		}
		return
	}
	resolveWindow(f.runs, off, p)
}

// CopyFrom replaces the frame's entire contents with src's (the page
// copy of COW resolution). O(pageSize) on the bytes plane, O(#runs)
// on the symbolic plane, where src's runs are copied into the frame's
// own run storage.
func (f *Frame) CopyFrom(src *Frame) {
	if f.runs == nil {
		if src.data == nil {
			clear(f.data)
			return
		}
		f.touch()
		copy(f.data, src.data)
		return
	}
	f.splice(0, f.size, src.runs, 0)
}

// ClearRange zeroes frame bytes [off, off+n).
func (f *Frame) ClearRange(off, n int) {
	if n == 0 {
		return
	}
	if f.runs == nil {
		if f.data != nil {
			clear(f.data[off : off+n])
		}
		return
	}
	f.splice(off, n, zeroRuns, 0)
}

// SnapshotBuf returns an independent snapshot of the whole page (the
// pageout path's copy to backing store).
func (f *Frame) SnapshotBuf() Buf { return f.ReadBuf(0, f.size) }

// BorrowBuf returns the whole page as a borrowed buffer, for a consumer
// that copies it at once (the page cache's writeback into a device that
// owns its media). On the bytes plane the result aliases the frame's
// backing store and is valid only until the next write to or release of
// the frame; a frame never written yet yields a zero buffer. On the
// symbolic plane it is the same O(#runs) independent slice as ReadBuf.
func (f *Frame) BorrowBuf() Buf {
	if f.runs != nil {
		return Buf{n: f.size, runs: sliceRuns(f.runs, 0, f.size)}
	}
	if f.data == nil {
		return ZeroBuf(f.size)
	}
	return BufBytes(f.data)
}

// LoadBuf installs b as the frame's entire contents (the page-in path).
func (f *Frame) LoadBuf(b Buf) {
	if b.Len() != f.size {
		panic(fmt.Sprintf("mem: LoadBuf of %d bytes into %d-byte frame", b.Len(), f.size))
	}
	f.WriteBuf(0, b)
}

// InRefs returns the number of outstanding input references.
func (f *Frame) InRefs() int { return f.inRefs }

// OutRefs returns the number of outstanding output references.
func (f *Frame) OutRefs() int { return f.outRefs }

// Wired reports whether the frame is wired against pageout.
func (f *Frame) Wired() bool { return f.wired > 0 }

// WireCount returns the number of outstanding wires.
func (f *Frame) WireCount() int { return f.wired }

// Free reports whether the frame is on the free list.
func (f *Frame) Free() bool { return f.free }

// Attached reports whether the frame is owned by a memory object.
func (f *Frame) Attached() bool { return f.attached }

// PendingFree reports whether the frame has been released but is kept off
// the free list by outstanding I/O references.
func (f *Frame) PendingFree() bool { return !f.free && !f.attached }

// Referenced reports whether any I/O references are outstanding.
func (f *Frame) Referenced() bool { return f.inRefs > 0 || f.outRefs > 0 }

func (f *Frame) String() string {
	return fmt.Sprintf("frame %d (in=%d out=%d wired=%d free=%t attached=%t)",
		f.id, f.inRefs, f.outRefs, f.wired, f.free, f.attached)
}

// Stats counts physical memory events since the PhysMem was created.
type Stats struct {
	Allocs        uint64 // successful frame allocations
	Frees         uint64 // frames returned to the free list
	DeferredFrees uint64 // deallocations deferred by I/O references
	FailedAllocs  uint64 // allocations that hit ErrOutOfMemory
	Zeroed        uint64 // frames zeroed at allocation
	ReclaimRuns   uint64 // reclaimer invocations on exhaustion
}

// PhysMem is a simulated bank of physical memory.
type PhysMem struct {
	pageSize   int
	plane      DataPlane
	frames     []Frame
	freeList   []FrameID // LIFO
	untouched  int       // bottom freeList entries no alloc has popped since Reset
	reclaimer  func(need int) int
	allocFault func() bool
	stats      Stats
	hwm        stats.HighWater // frames off the free list, high-water tracked
	onFree     []bool          // CheckInvariants' free-list membership by frame id, reused
}

// New creates a physical memory of numFrames frames of pageSize bytes
// each, on the materialized Bytes plane. It panics if either argument
// is nonpositive, mirroring the fact that a machine without memory
// cannot boot.
func New(numFrames, pageSize int) *PhysMem {
	return NewWithPlane(numFrames, pageSize, Bytes)
}

// NewWithPlane is New with an explicit data plane. A nil plane means
// Bytes.
func NewWithPlane(numFrames, pageSize int, plane DataPlane) *PhysMem {
	if numFrames <= 0 || pageSize <= 0 {
		panic(fmt.Sprintf("mem.New(%d, %d): nonpositive size", numFrames, pageSize))
	}
	if plane == nil {
		plane = Bytes
	}
	pm := &PhysMem{
		pageSize: pageSize,
		plane:    plane,
		frames:   make([]Frame, numFrames),
		freeList: make([]FrameID, 0, numFrames),
	}
	// Frame backing stores are materialized lazily: a symbolic frame on
	// first allocation, a bytes frame on its first write (Frame.touch).
	// A sweep that touches 30 frames of a 512-frame machine never pays
	// for the other 482 pages, and a kernel pool page that is allocated
	// but never written never pays at all. Unwritten frames read as zero
	// (machine memory after power-on), exactly the contents an eager
	// backing store would hold.
	for i := range pm.frames {
		f := &pm.frames[i]
		f.id = FrameID(i)
		f.free = true
	}
	pm.pushCanonical(numFrames)
	return pm
}

// pushCanonical pushes frames n-1 down to 0 onto the free list, so
// frame 0 is allocated first. The list below holds frames N-1 down to
// n, untouched, so the whole list is then canonical and every frame in
// its post-Reset state. The order matters: a Reset PhysMem allocates
// identically to a fresh one only because of it, and Reset's cost and
// CheckInvariants' untouched-block check rely on the untouched frames
// sitting at the bottom of the list in exactly this order.
func (pm *PhysMem) pushCanonical(n int) {
	base := len(pm.freeList)
	pm.freeList = pm.freeList[:base+n] // capacity is always N
	pushed := pm.freeList[base:]
	for i := range pushed {
		pushed[i] = FrameID(n - 1 - i)
	}
	pm.untouched = len(pm.frames)
}

// Reset returns the physical memory to its post-construction state: all
// frames free in canonical allocation order, no I/O references or
// wires, no reclaimer, zeroed statistics. Frame backing stores already
// materialized are retained (their contents are stale, exactly like
// real memory across a reboot), so a Reset machine allocates without
// touching the allocator slow path again.
//
// Reset costs O(frames allocated since the last Reset), not O(frames).
// The free list is LIFO and Reset leaves it canonical, so the frames no
// allocation has popped since are always a contiguous block at its
// bottom: ids N-1 down to N-u, in canonical order and still in their
// post-Reset state. Reset keeps that block, re-initializes only frames
// [0, N-u) and pushes them back on top of it.
func (pm *PhysMem) Reset() {
	pm.reclaimer = nil
	pm.allocFault = nil
	pm.stats = Stats{}
	pm.hwm.Reset()
	touched := len(pm.frames) - pm.untouched
	for i := range pm.frames[:touched] {
		f := &pm.frames[i]
		f.inRefs, f.outRefs, f.wired = 0, 0, 0
		f.attached = false
		f.pristine = false
		f.free = true
	}
	pm.freeList = pm.freeList[:pm.untouched]
	pm.pushCanonical(touched)
}

// PageSize returns the frame size in bytes.
func (pm *PhysMem) PageSize() int { return pm.pageSize }

// Plane returns the data plane frames are backed by.
func (pm *PhysMem) Plane() DataPlane { return pm.plane }

// Symbolic reports whether frames carry runs instead of bytes.
func (pm *PhysMem) Symbolic() bool { return pm.plane.Symbolic() }

// NumFrames returns the total number of frames.
func (pm *PhysMem) NumFrames() int { return len(pm.frames) }

// FreeFrames returns the number of frames currently on the free list.
func (pm *PhysMem) FreeFrames() int { return len(pm.freeList) }

// HighWater returns the most frames ever simultaneously off the free
// list — the machine-wide memory high-water mark. Kept outside Stats so
// stat-struct hashes from earlier benchmarks are unperturbed.
func (pm *PhysMem) HighWater() int { return pm.hwm.High() }

// Stats returns a snapshot of allocation statistics.
func (pm *PhysMem) Stats() Stats { return pm.stats }

// Frame returns the frame with the given id. It panics on an invalid id;
// frame ids only originate from this PhysMem, so an invalid id is memory
// corruption in the simulation itself.
func (pm *PhysMem) Frame(id FrameID) *Frame {
	if int(id) < 0 || int(id) >= len(pm.frames) {
		panic(fmt.Sprintf("mem: invalid frame id %d", id))
	}
	return &pm.frames[id]
}

// SetReclaimer installs a callback invoked when Alloc finds the free
// list empty, before failing — the hook through which the pageout
// daemon provides demand paging. The callback reports how many frames
// it reclaimed.
func (pm *PhysMem) SetReclaimer(fn func(need int) int) { pm.reclaimer = fn }

// SetAllocFault installs a fault-injection hook consulted before every
// allocation; when it returns true the allocation fails transiently
// with ErrOutOfMemory (counted in FailedAllocs) as if memory pressure
// spiked. A nil hook (the default, restored by Reset) disables
// injection.
func (pm *PhysMem) SetAllocFault(fn func() bool) { pm.allocFault = fn }

// alloc removes a frame from the free list and attaches it, sizing it
// (and on the symbolic plane materializing it) on first attach. It
// preserves the frame's pristine flag so AllocZeroed can skip redundant
// clears; the exported wrappers consume the flag before handing the
// frame out.
func (pm *PhysMem) alloc() (*Frame, error) {
	if pm.allocFault != nil && pm.allocFault() {
		pm.stats.FailedAllocs++
		return nil, ErrOutOfMemory
	}
	if len(pm.freeList) == 0 && pm.reclaimer != nil {
		pm.stats.ReclaimRuns++
		fn := pm.reclaimer
		pm.reclaimer = nil // guard against reentrant reclaim
		fn(1)
		pm.reclaimer = fn
	}
	n := len(pm.freeList)
	if n == 0 {
		pm.stats.FailedAllocs++
		return nil, ErrOutOfMemory
	}
	id := pm.freeList[n-1]
	pm.freeList = pm.freeList[:n-1]
	pm.untouched = min(pm.untouched, n-1)
	pm.hwm.Set(len(pm.frames) - len(pm.freeList))
	f := &pm.frames[id]
	if f.size == 0 {
		pm.plane.materialize(f, pm.pageSize)
		f.size = pm.pageSize
		f.pristine = true
	}
	f.free = false
	f.attached = true
	pm.stats.Allocs++
	return f, nil
}

// Alloc removes a frame from the free list and attaches it. The frame's
// contents are whatever the previous owner left there — exactly the
// property that makes I/O-deferred deallocation necessary for safety.
func (pm *PhysMem) Alloc() (*Frame, error) {
	f, err := pm.alloc()
	if err != nil {
		return nil, err
	}
	f.pristine = false
	return f, nil
}

// AllocZeroed is Alloc followed by clearing the frame contents, as a
// kernel must do before mapping a fresh page to user space. A freshly
// materialized backing store is already zero, so the physical clear is
// skipped (the count in Stats.Zeroed still advances — the page is
// handed out zeroed either way), and so is an unwritten bytes frame's.
func (pm *PhysMem) AllocZeroed() (*Frame, error) {
	f, err := pm.alloc()
	if err != nil {
		return nil, err
	}
	if !f.pristine {
		if f.runs != nil {
			f.runs = append(f.runs[:0], Run{Src: SrcZero, Len: f.size})
		} else {
			clear(f.data)
		}
	}
	f.pristine = false
	pm.stats.Zeroed++
	return f, nil
}

// AllocN appends n frames to dst: n Alloc calls, so the frames, their
// order, the statistics, the high-water mark and the fault-hook
// consultations are exactly Alloc's. It is how the adapter and kernel
// pools take their pages in one call. On failure it returns the frames
// taken so far with the error.
func (pm *PhysMem) AllocN(dst []*Frame, n int) ([]*Frame, error) {
	for range n {
		f, err := pm.Alloc()
		if err != nil {
			return dst, err
		}
		dst = append(dst, f)
	}
	return dst, nil
}

// Release detaches the frame from its owner (the system page deallocation
// routine). If the frame has no outstanding I/O references it joins the
// free list immediately; otherwise the free is deferred until the last
// reference is dropped (I/O-deferred page deallocation, Section 3.1).
func (pm *PhysMem) Release(f *Frame) {
	if f.free {
		panic(fmt.Sprintf("mem: double free of %v", f))
	}
	f.attached = false
	f.wired = 0
	if f.Referenced() {
		pm.stats.DeferredFrees++
		return
	}
	pm.pushFree(f)
}

func (pm *PhysMem) pushFree(f *Frame) {
	f.free = true
	pm.freeList = append(pm.freeList, f.id)
	pm.stats.Frees++
	pm.hwm.Set(len(pm.frames) - len(pm.freeList))
}

// Reattach rescues a pending-free frame back into the attached state.
// Genie uses this when an application removes a region mid-input: the
// in-flight pages must be re-homed into a fresh memory object so the
// input's result location remains valid (Section 6.2.1).
func (pm *PhysMem) Reattach(f *Frame) {
	if !f.PendingFree() {
		panic(fmt.Sprintf("mem: Reattach of %v (not pending free)", f))
	}
	f.attached = true
}

// RefInput adds an input reference, pinning the frame against deallocation
// and (via the pageout daemon's input-disabled check) against pageout.
// Referencing a free frame is a kernel bug in the simulation and panics.
func (pm *PhysMem) RefInput(f *Frame) {
	if f.free {
		panic(fmt.Sprintf("mem: input reference to free %v", f))
	}
	f.inRefs++
}

// RefOutput adds an output reference.
func (pm *PhysMem) RefOutput(f *Frame) {
	if f.free {
		panic(fmt.Sprintf("mem: output reference to free %v", f))
	}
	f.outRefs++
}

// UnrefInput drops an input reference. If it was the last reference and
// the frame was released during I/O, the deferred free completes now.
func (pm *PhysMem) UnrefInput(f *Frame) {
	if f.inRefs <= 0 {
		panic(fmt.Sprintf("mem: input unreference underflow on %v", f))
	}
	f.inRefs--
	pm.maybeCompleteDeferredFree(f)
}

// UnrefOutput drops an output reference, completing any deferred free.
func (pm *PhysMem) UnrefOutput(f *Frame) {
	if f.outRefs <= 0 {
		panic(fmt.Sprintf("mem: output unreference underflow on %v", f))
	}
	f.outRefs--
	pm.maybeCompleteDeferredFree(f)
}

func (pm *PhysMem) maybeCompleteDeferredFree(f *Frame) {
	if !f.Referenced() && !f.attached && !f.free {
		pm.pushFree(f)
	}
}

// Wire pins the frame against pageout in the traditional sense used by
// the non-emulated share/move/weak-move semantics.
func (pm *PhysMem) Wire(f *Frame) {
	if f.free {
		panic(fmt.Sprintf("mem: wiring free %v", f))
	}
	f.wired++
}

// Unwire releases one wire.
func (pm *PhysMem) Unwire(f *Frame) {
	if f.wired <= 0 {
		panic(fmt.Sprintf("mem: unwire underflow on %v", f))
	}
	f.wired--
}

// CheckInvariants verifies the global frame-state invariants and returns
// an error describing the first violation. Tests call it after every
// operation sequence.
func (pm *PhysMem) CheckInvariants() error {
	// The untouched block Reset relies on: the bottom u free-list
	// entries are frames N-1 down to N-u, free, with no counts.
	n := len(pm.frames)
	if pm.untouched < 0 || pm.untouched > len(pm.freeList) {
		return fmt.Errorf("untouched count %d outside free list of %d", pm.untouched, len(pm.freeList))
	}
	for i, id := range pm.freeList[:pm.untouched] {
		f := &pm.frames[n-1-i]
		if id != f.id || !f.free || f.attached || f.pristine || f.Referenced() || f.wired != 0 {
			return fmt.Errorf("free list entry %d is %d, want untouched %v", i, id, f)
		}
	}
	if len(pm.onFree) != n {
		pm.onFree = make([]bool, n)
	}
	onFree := pm.onFree
	clear(onFree)
	for _, id := range pm.freeList {
		if uint(id) >= uint(n) {
			return fmt.Errorf("free list holds frame %d, outside %d frames", id, n)
		}
		if onFree[id] {
			return fmt.Errorf("frame %d appears twice on free list", id)
		}
		onFree[id] = true
	}
	for i := range pm.frames {
		f := &pm.frames[i]
		if f.free != onFree[f.id] {
			return fmt.Errorf("%v: free flag disagrees with free list", f)
		}
		if f.free && f.attached {
			return fmt.Errorf("%v: free frame still attached", f)
		}
		if f.free && f.Referenced() {
			return fmt.Errorf("%v: free frame has I/O references", f)
		}
		if f.inRefs < 0 || f.outRefs < 0 || f.wired < 0 {
			return fmt.Errorf("%v: negative count", f)
		}
	}
	return nil
}
