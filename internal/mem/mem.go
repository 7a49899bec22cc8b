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
	"slices"

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

// BorrowBuf returns the whole page as a borrowed buffer (the page
// cache's writeback, which a block device shares). On the bytes plane
// the result aliases the frame's backing store and is valid only until
// the next write to or release of the frame, or until ExchangeData
// hands that store to another owner; a frame never written yet yields a
// zero buffer. On the symbolic plane it is the same O(#runs)
// independent slice as ReadBuf.
func (f *Frame) BorrowBuf() Buf {
	if f.runs != nil {
		return Buf{n: f.size, runs: sliceRuns(f.runs, 0, f.size)}
	}
	if f.data == nil {
		return ZeroBuf(f.size)
	}
	return BufBytes(f.data)
}

// ExchangeData installs p as a bytes-plane frame's backing store and
// returns the store it replaces, nil if the frame was never written.
// It moves a page's storage between owners without copying: the page
// cache hands a written-back page's store to the block device that
// shares it and takes the block's former storage in exchange. p is nil
// (the frame reads as zeros until its next write) or exactly one page,
// and its contents become the frame's; the caller gives up p and owns
// the returned store.
func (f *Frame) ExchangeData(p []byte) []byte {
	if f.runs != nil || (p != nil && len(p) != f.size) {
		panic(fmt.Sprintf("mem: ExchangeData of %d bytes into %v (size %d, symbolic %t)", len(p), f, f.size, f.runs != nil))
	}
	old := f.data
	f.data = p
	return old
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
}

// PhysMem is a simulated bank of physical memory.
//
// A frame's record is built the first time the frame is handed out (by
// an allocation or by Frame), in chunks of RecordChunk records so a
// *Frame never moves, and the free list keeps its untouched bottom
// block as a count: a machine pays Go memory only for the frames a run
// touches, and New costs O(1) whatever the frame count. A frame without
// a record is in the state its record would be built in: taken by
// AllocBlock (attached) if it lies below blocked, free and never sized
// otherwise.
type PhysMem struct {
	pageSize   int
	plane      DataPlane
	numFrames  int
	chunks     []*[RecordChunk]Frame // records by id/RecordChunk; nil until a frame in the chunk is first used
	records    int                   // records built, for Records
	freeList   []FrameID             // LIFO, above the untouched block
	untouched  int                   // bottom free-list block, frames N-1 down to N-untouched, no alloc has popped since Reset
	blocked    int                   // frames below it without a record were taken by AllocBlock
	reserved   int                   // boot frames [0, reserved), kept allocated across Reset (Seal)
	bootStats  Stats                 // Stats at Seal, restored by Reset
	bootHWM    stats.HighWater       // hwm at Seal, restored by Reset
	allocFault func() bool
	stats      Stats
	hwm        stats.HighWater // frames off the free list, high-water tracked
	listed     []uint64        // CheckInvariants' free-list membership, one word per chunk, reused
}

// RecordChunk is the number of frame records a PhysMem builds at once:
// one allocation of 6 KiB, a whole size class.
const RecordChunk = 64

// New creates a physical memory of numFrames frames of pageSize bytes
// each, on the materialized Bytes plane. It panics if either argument
// is nonpositive, mirroring the fact that a machine without memory
// cannot boot.
func New(numFrames, pageSize int) *PhysMem {
	return NewWithPlane(numFrames, pageSize, Bytes)
}

// NewWithPlane is New with an explicit data plane. A nil plane means
// Bytes.
//
// Nothing per frame is built here: every frame starts in the untouched
// block of the free list, which is a count, and gets its record when it
// is first handed out. Frame backing stores are materialized lazily
// too: a symbolic frame on first allocation, a bytes frame on its first
// write (Frame.touch). A sweep that touches 30 frames of a 512-frame
// machine never pays for the other 482, and a kernel pool page that is
// allocated but never written never pays for its backing store.
// Unwritten frames read as zero (machine memory after power-on),
// exactly the contents an eager backing store would hold.
func NewWithPlane(numFrames, pageSize int, plane DataPlane) *PhysMem {
	if numFrames <= 0 || pageSize <= 0 {
		panic(fmt.Sprintf("mem.New(%d, %d): nonpositive size", numFrames, pageSize))
	}
	if plane == nil {
		plane = Bytes
	}
	return &PhysMem{
		pageSize:  pageSize,
		plane:     plane,
		numFrames: numFrames,
		untouched: numFrames,
	}
}

// record returns frame id's record, building its chunk if no frame in
// it has been used yet. Each record of a new chunk is built in the state
// the frame is in: taken by AllocBlock below blocked (attached, sized,
// never handed out, so not pristine), free and unsized above it. An
// allocation takes a frame with a record or the untouched block's next
// one, which is never below blocked, so the record it builds is free.
func (pm *PhysMem) record(id FrameID) *Frame {
	if c := uint(id) / RecordChunk; c < uint(len(pm.chunks)) && pm.chunks[c] != nil {
		return &pm.chunks[c][uint(id)%RecordChunk]
	}
	return pm.build(id)
}

// build builds the chunk of frame id's record and returns the record.
func (pm *PhysMem) build(id FrameID) *Frame {
	c := int(id) / RecordChunk
	if c >= len(pm.chunks) {
		pm.chunks = append(pm.chunks, make([]*[RecordChunk]Frame, c+1-len(pm.chunks))...)
	}
	lo := c * RecordChunk
	n := min(RecordChunk, pm.numFrames-lo) // the last chunk's tail has no frames
	chunk := new([RecordChunk]Frame)
	for i := range n {
		f := &chunk[i]
		f.id = FrameID(lo + i)
		if lo+i < pm.blocked {
			pm.plane.materialize(f, pm.pageSize)
			f.size = pm.pageSize
			f.attached = true
		} else {
			f.free = true
		}
	}
	pm.chunks[c] = chunk
	pm.records += n
	return &chunk[int(id)%RecordChunk]
}

// builtIn returns chunk c's records with ids in [lo, hi): none if the
// chunk was never built. A walk over the records of [lo, hi) calls it
// for c from lo/RecordChunk while c*RecordChunk < hi, and so builds no
// chunk.
func (pm *PhysMem) builtIn(c, lo, hi int) []Frame {
	chunk := pm.chunks[c]
	if chunk == nil {
		return nil
	}
	base := c * RecordChunk
	return chunk[max(lo-base, 0):min(hi-base, RecordChunk)]
}

// Records returns the number of frame records built so far: the frames
// handed out since construction, rounded out to whole chunks.
func (pm *PhysMem) Records() int { return pm.records }

// Seal makes the frames allocated so far boot memory: the pages a
// host's pools take at construction, which a real kernel allocates once
// at boot (the paper's overlay pages are "preallocated from physical
// memory"). A canonical free list hands them out first, so they are
// frames [0, k). Reset leaves them allocated and untouched, and
// restores Stats and the high-water mark to their values at Seal; each
// pool re-admits the pages it lent out (Readmit) in place of
// allocating its whole complement again. Seal is called once, before
// any frame is freed, and panics if the allocated frames are not
// exactly [0, k), attached and without references or wires. It checks
// only the records built; a boot frame without one is attached and
// untouched by construction.
func (pm *PhysMem) Seal() {
	k := pm.numFrames - pm.untouched
	if len(pm.freeList) != 0 {
		panic(fmt.Sprintf("mem: Seal after a free: the allocated frames are not [0, %d)", k))
	}
	for c := 0; c < len(pm.chunks) && c*RecordChunk < k; c++ {
		recs := pm.builtIn(c, 0, k)
		for i := range recs {
			if f := &recs[i]; !f.attached || f.Referenced() || f.wired != 0 {
				panic(fmt.Sprintf("mem: Seal of %v", f))
			}
		}
	}
	pm.reserved = k
	pm.bootStats = pm.stats
	pm.bootHWM = pm.hwm
}

// Reset returns the physical memory to its post-construction state: all
// frames but the boot frames free in canonical allocation order, no
// I/O references or wires on them, no fault hook, statistics and
// high-water mark as they stood at Seal (zero without one). Frame
// records and the backing stores already materialized are retained
// (their contents are stale, exactly like real memory across a reboot),
// so a Reset machine allocates without touching the allocator slow path
// again.
//
// Reset costs O(frames allocated since the last Reset), not O(frames).
// The free list is LIFO and Reset leaves it canonical, so the frames no
// allocation has popped since are always a contiguous block at its
// bottom: ids N-1 down to N-u, in canonical order and still in their
// post-Reset state. That block is a count, so Reset re-initializes only
// the records of frames [k, N-u) and makes every frame from k up
// untouched again. It never touches the k boot frames: a boot frame
// that left its pool during the run may be in any state until the pool
// re-admits it (Readmit), and the Reset is complete only then. A
// non-boot frame AllocBlock took without building its record is free
// again by the same count.
func (pm *PhysMem) Reset() {
	pm.allocFault = nil
	pm.stats = pm.bootStats
	pm.hwm = pm.bootHWM
	touched := pm.numFrames - pm.untouched
	for c := pm.reserved / RecordChunk; c < len(pm.chunks) && c*RecordChunk < touched; c++ {
		recs := pm.builtIn(c, pm.reserved, touched)
		for i := range recs {
			f := &recs[i]
			f.inRefs, f.outRefs, f.wired = 0, 0, 0
			f.attached = false
			f.pristine = false
			f.free = true
		}
	}
	pm.freeList = pm.freeList[:0]
	pm.untouched = pm.numFrames - pm.reserved
	pm.blocked = min(pm.blocked, pm.reserved)
}

// Readmit returns boot frame f to its state at Seal: attached, not
// free, no I/O references or wires. A pool calls it after Reset for
// each page it lent out since its last Reacquire; Reset itself leaves
// boot frames alone, and a page that never left its pool is still in
// that state. Readmit is valid only between a Reset and the next
// allocation or release, when no boot frame is on the free list; it
// panics on a frame that is not a boot frame.
func (pm *PhysMem) Readmit(f *Frame) {
	if int(f.id) >= pm.reserved {
		panic(fmt.Sprintf("mem: Readmit of %v, not one of %d boot frames", f, pm.reserved))
	}
	f.inRefs, f.outRefs, f.wired = 0, 0, 0
	f.free = false
	f.attached = true
	f.pristine = false
}

// PageSize returns the frame size in bytes.
func (pm *PhysMem) PageSize() int { return pm.pageSize }

// Plane returns the data plane frames are backed by.
func (pm *PhysMem) Plane() DataPlane { return pm.plane }

// Symbolic reports whether frames carry runs instead of bytes.
func (pm *PhysMem) Symbolic() bool { return pm.plane.Symbolic() }

// NumFrames returns the total number of frames.
func (pm *PhysMem) NumFrames() int { return pm.numFrames }

// FreeFrames returns the number of frames currently on the free list.
func (pm *PhysMem) FreeFrames() int { return pm.untouched + len(pm.freeList) }

// HighWater returns the most frames ever simultaneously off the free
// list — the machine-wide memory high-water mark. Kept outside Stats so
// stat-struct hashes from earlier benchmarks are unperturbed.
func (pm *PhysMem) HighWater() int { return pm.hwm.High() }

// Stats returns a snapshot of allocation statistics.
func (pm *PhysMem) Stats() Stats { return pm.stats }

// Frame returns the frame with the given id, building its record if
// the frame has not been used yet. It panics on an invalid id; frame
// ids only originate from this PhysMem, so an invalid id is memory
// corruption in the simulation itself.
func (pm *PhysMem) Frame(id FrameID) *Frame {
	if uint(id) >= uint(pm.numFrames) {
		panic(fmt.Sprintf("mem: invalid frame id %d", id))
	}
	return pm.record(id)
}

// SetAllocFault installs a fault-injection hook consulted before every
// allocation; when it returns true the allocation fails transiently
// with ErrOutOfMemory (counted in FailedAllocs) as if memory pressure
// spiked. A nil hook (the default, restored by Reset) disables
// injection.
func (pm *PhysMem) SetAllocFault(fn func() bool) { pm.allocFault = fn }

// take removes the top free-list entry, as every allocation does,
// after consulting the fault hook. It counts the allocation and moves
// the high-water mark.
func (pm *PhysMem) take() (FrameID, error) {
	if pm.allocFault != nil && pm.allocFault() {
		pm.stats.FailedAllocs++
		return 0, ErrOutOfMemory
	}
	var id FrameID
	if n := len(pm.freeList); n > 0 {
		id = pm.freeList[n-1]
		pm.freeList = pm.freeList[:n-1]
	} else if pm.untouched > 0 {
		id = FrameID(pm.numFrames - pm.untouched)
		pm.untouched--
	} else {
		pm.stats.FailedAllocs++
		return 0, ErrOutOfMemory
	}
	pm.hwm.Set(pm.numFrames - pm.FreeFrames())
	pm.stats.Allocs++
	return id, nil
}

// alloc removes a frame from the free list and attaches it, sizing it
// (and on the symbolic plane materializing it) on first attach. It
// preserves the frame's pristine flag so AllocZeroed can skip redundant
// clears; the exported wrappers consume the flag before handing the
// frame out.
func (pm *PhysMem) alloc() (*Frame, error) {
	id, err := pm.take()
	if err != nil {
		return nil, err
	}
	f := pm.record(id)
	if f.size == 0 {
		pm.plane.materialize(f, pm.pageSize)
		f.size = pm.pageSize
		f.pristine = true
	}
	f.free = false
	f.attached = true
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
// pools take their pages on Refill. On failure it returns the frames
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

// AllocBlock takes frames first, first+1, ..., first+n-1 for a pool at
// construction without building their records: n Alloc calls, so the
// statistics, the high-water mark and the fault-hook consultations are
// exactly AllocN's, but each frame's record is built, attached, only
// when Frame is first asked for it. The frames are the next n the
// untouched block hands out. If it holds fewer, or a released
// frame is on the free list, AllocBlock takes nothing and returns an
// error wrapping ErrOutOfMemory; if the fault hook fails an allocation,
// it releases the frames it took, in order, as a pool that could not be
// built returns its pages.
func (pm *PhysMem) AllocBlock(n int) (first FrameID, err error) {
	first = FrameID(pm.numFrames - pm.untouched)
	if n > pm.untouched || len(pm.freeList) != 0 {
		pm.stats.FailedAllocs++
		return first, fmt.Errorf("%w: no block of %d frames (%d untouched, %d released)",
			ErrOutOfMemory, n, pm.untouched, len(pm.freeList))
	}
	for i := range n {
		if _, err := pm.take(); err != nil {
			pm.blocked = int(first) + i
			for j := range i {
				pm.Release(pm.Frame(first + FrameID(j)))
			}
			return first, err
		}
	}
	pm.blocked = int(first) + n
	return first, nil
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

// pushFree puts f on the free list. The list holds only frames handed
// out since Reset, and a boot frame only when a pool's page is freed
// outside it, so a full list grows at once to the other frames handed
// out: their number bounds it until boot frames join. Growing to the
// boot frames too would give every host a list the size of its pools.
func (pm *PhysMem) pushFree(f *Frame) {
	f.free = true
	if len(pm.freeList) == cap(pm.freeList) {
		pm.freeList = slices.Grow(pm.freeList, max(pm.numFrames-pm.untouched-pm.reserved-len(pm.freeList), 1))
	}
	pm.freeList = append(pm.freeList, f.id)
	pm.stats.Frees++
	pm.hwm.Set(pm.numFrames - pm.FreeFrames())
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
// operation sequence. It walks only the records built and the free
// list above the untouched block, builds no record, and allocates
// nothing once its membership words cover the chunks built.
func (pm *PhysMem) CheckInvariants() error {
	// The untouched block Reset relies on: frames N-1 down to N-u, free,
	// with no counts, and never a boot frame (so none is on the free list
	// after Reset). Every frame below it has been handed out since the
	// last Reset, so it has a record unless AllocBlock took it.
	n := pm.numFrames
	if pm.untouched < 0 || pm.untouched > n-pm.reserved {
		return fmt.Errorf("untouched block of %d frames outside the %d frames above the %d boot frames", pm.untouched, n-pm.reserved, pm.reserved)
	}
	touched := n - pm.untouched
	if pm.blocked < 0 || pm.blocked > touched {
		return fmt.Errorf("AllocBlock frames end at %d, above the %d frames handed out", pm.blocked, touched)
	}
	for c := pm.blocked / RecordChunk; pm.blocked < touched && c*RecordChunk < touched; c++ {
		if c >= len(pm.chunks) || pm.chunks[c] == nil {
			return fmt.Errorf("frame %d was handed out but has no record", max(c*RecordChunk, pm.blocked))
		}
	}
	for c := touched / RecordChunk; c < len(pm.chunks); c++ {
		recs := pm.builtIn(c, touched, n)
		for i := range recs {
			if f := &recs[i]; !f.free || f.attached || f.pristine || f.Referenced() || f.wired != 0 {
				return fmt.Errorf("untouched %v (pristine %t)", f, f.pristine)
			}
		}
	}
	if len(pm.listed) < len(pm.chunks) {
		pm.listed = make([]uint64, len(pm.chunks))
	}
	listed := pm.listed[:len(pm.chunks)]
	clear(listed)
	for _, id := range pm.freeList {
		if id < 0 || int(id) >= touched {
			return fmt.Errorf("free list holds frame %d, outside the %d frames below the untouched block", id, touched)
		}
		c, bit := int(id)/RecordChunk, uint64(1)<<(int(id)%RecordChunk)
		if c >= len(pm.chunks) || pm.chunks[c] == nil {
			return fmt.Errorf("free list holds frame %d, which AllocBlock took and nothing released", id)
		}
		if listed[c]&bit != 0 {
			return fmt.Errorf("frame %d appears twice on free list", id)
		}
		listed[c] |= bit
	}
	for c := 0; c < len(pm.chunks) && c*RecordChunk < touched; c++ {
		recs, bits := pm.builtIn(c, 0, touched), listed[c]
		for i := range recs {
			f := &recs[i]
			if f.free != (bits>>i&1 != 0) {
				return fmt.Errorf("%v: free flag disagrees with free list", f)
			}
			if f.free && f.attached {
				return fmt.Errorf("%v: free frame still attached", f)
			}
			if f.free && f.Referenced() {
				return fmt.Errorf("%v: free frame has I/O references", f)
			}
			if f.inRefs|f.outRefs|f.wired < 0 {
				return fmt.Errorf("%v: negative count", f)
			}
		}
	}
	return nil
}
