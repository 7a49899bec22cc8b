package netsim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// OverlayPool is an I/O module's private pool of fixed-size overlay
// pages in host main memory (Section 6.2.2). Frames are preallocated
// from physical memory; Get hands them to arriving packets and Put
// returns them after dispose. When a semantics consumes overlay pages
// permanently (move maps them into the application), Refill replaces
// them with freshly allocated frames to avoid pool depletion.
//
// The free list's bottom block, the boot pages no Get has popped since
// the last Reacquire, is a count over the pool's frame range: a page's
// frame record is built when the page is first lent, so a pool pays Go
// memory only for the pages a run uses.
type OverlayPool struct {
	pm        *mem.PhysMem
	free      []*mem.Frame // free list above the untouched block
	base      mem.FrameID  // the pages taken at construction are frames base, base+1, ...
	untouched int          // bottom free entries no Get has popped since Reacquire: frames base, ..., base+untouched-1
	total     int
	hwm       stats.HighWater // occupancy (total - free), high-water tracked

	// Tracing: event names are precomputed at SetTracer time so the hot
	// path emits without concatenating strings.
	tr         *trace.Tracer
	trCat      trace.Category
	acqName    string
	relName    string
	refillName string
}

// SetTracer installs (or with nil removes) a tracer on the pool. Events
// are named name+".acquire", name+".release", and name+".refill" under
// category cat, so the kernel buffer pool and the device overlay pool
// stay distinguishable in one stream.
func (p *OverlayPool) SetTracer(tr *trace.Tracer, cat trace.Category, name string) {
	p.tr = tr
	p.trCat = cat
	if tr != nil {
		p.acqName = name + ".acquire"
		p.relName = name + ".release"
		p.refillName = name + ".refill"
	}
}

// NewOverlayPool preallocates npages overlay pages: consecutive frames
// taken as one block (PhysMem.AllocBlock), so the pool's construction
// list is just its first frame and no page's record is built before
// the page is lent. A pool that is to be recycled (Reacquire) is built
// before its PhysMem is sealed, so its pages are boot frames.
func NewOverlayPool(pm *mem.PhysMem, npages int) (*OverlayPool, error) {
	base, err := pm.AllocBlock(npages)
	if err != nil {
		return nil, fmt.Errorf("netsim: overlay pool: %w", err)
	}
	return &OverlayPool{pm: pm, base: base, total: npages, untouched: npages}, nil
}

// PageSize returns the overlay page size.
func (p *OverlayPool) PageSize() int { return p.pm.PageSize() }

// PagesFor returns the number of overlay pages needed for n bytes.
func (p *OverlayPool) PagesFor(n int) int {
	ps := p.pm.PageSize()
	return (n + ps - 1) / ps
}

// Free returns the number of available overlay pages.
func (p *OverlayPool) Free() int { return p.untouched + len(p.free) }

// Total returns the pool's configured size.
func (p *OverlayPool) Total() int { return p.total }

// HighWater returns the most overlay pages ever simultaneously out of
// the pool — the per-pool memory high-water mark the closed-loop
// workload reports. It lives beside the pool's Stats-style counters
// rather than inside any existing stats struct so the PR7 cluster
// digests (which hash those structs wholesale) are unperturbed.
func (p *OverlayPool) HighWater() int { return p.hwm.High() }

// Underflows reports how often the occupancy gauge was driven below
// zero — a double Put or unbalanced Refill. Conservation audits assert
// it is zero alongside the free-count checks.
func (p *OverlayPool) Underflows() uint64 { return p.hwm.Underflows() }

// gauge re-levels the occupancy gauge from the free count. Called after
// every mutation of free; Set is self-correcting, so consume/refill
// cycles (move semantics) settle back to true occupancy.
func (p *OverlayPool) gauge() { p.hwm.Set(p.total - p.Free()) }

// Get removes n pages from the pool into a new slice.
func (p *OverlayPool) Get(n int) ([]*mem.Frame, error) { return p.GetAppend(nil, n) }

// GetAppend removes n pages from the pool and appends them to dst, so a
// caller that keeps one slice per buffer reuses its storage. On error
// dst is returned unchanged. The pages are the top n of the free list,
// in list order: pages the untouched block gives up come first, from
// its top, then the whole list above it.
func (p *OverlayPool) GetAppend(dst []*mem.Frame, n int) ([]*mem.Frame, error) {
	if n > p.Free() {
		return dst, fmt.Errorf("%w: need %d, have %d", ErrPoolDepleted, n, p.Free())
	}
	above := min(n, len(p.free)) // pages from the list above the untouched block
	lo := p.untouched - (n - above)
	frames := dst
	for i := lo; i < p.untouched; i++ {
		frames = append(frames, p.pm.Frame(p.base+mem.FrameID(i)))
	}
	p.untouched = lo
	frames = append(frames, p.free[len(p.free)-above:]...)
	p.free = p.free[:len(p.free)-above]
	p.gauge()
	if p.tr != nil {
		p.tr.Instant(p.trCat, p.acqName, n*p.pm.PageSize())
	}
	return frames, nil
}

// Put returns pages to the pool after the input is disposed.
func (p *OverlayPool) Put(frames ...*mem.Frame) {
	p.free = append(p.free, frames...)
	if p.Free() > p.total {
		panic(fmt.Sprintf("netsim: overlay pool overfilled: %d > %d", p.Free(), p.total))
	}
	p.gauge()
	if p.tr != nil {
		p.tr.Instant(p.trCat, p.relName, len(frames)*p.pm.PageSize())
	}
}

// Refill allocates n fresh pages to replace overlay pages consumed by a
// semantics that maps them to the application (move input, Table 4).
func (p *OverlayPool) Refill(n int) error {
	var err error
	if p.free, err = p.pm.AllocN(p.free, n); err != nil {
		return fmt.Errorf("netsim: overlay refill: %w", err)
	}
	p.gauge()
	if p.tr != nil {
		p.tr.Instant(p.trCat, p.refillName, n*p.pm.PageSize())
	}
	return nil
}

// ConsumedBy records that n pages previously obtained with Get will not
// come back via Put (they now belong to an application region), lowering
// the overfill check threshold accordingly... they were already removed
// from free by Get, so only the accounting of total changes when the
// caller refills.
func (p *OverlayPool) ConsumedBy(n int) {
	// Pages consumed and pages refilled cancel out; nothing to track
	// beyond the invariant that free never exceeds total.
}

// Reacquire rebuilds the pool after the underlying physical memory was
// Reset wholesale, so a recycled pool holds exactly the frames a fresh
// one would, in construction order. The pool's pages are boot frames,
// which the Reset kept allocated (PhysMem.Seal), so nothing is
// allocated again: Reacquire re-admits only the pages lent out since
// its last call (PhysMem.Readmit) and makes every page untouched again.
// Get pops from the top, so the pages never lent are exactly the
// untouched block: Put and Refill only append above it. Pages Refill
// added are ordinary frames, which the Reset took back. A Reacquire
// allocates no Go memory and costs O(pages lent).
func (p *OverlayPool) Reacquire() {
	for i := p.untouched; i < p.total; i++ {
		p.pm.Readmit(p.pm.Frame(p.base + mem.FrameID(i)))
	}
	p.free = p.free[:0]
	p.untouched = p.total
	p.hwm.Reset()
}

// Destroy releases all pooled frames back to physical memory, the
// untouched block first, in list order.
func (p *OverlayPool) Destroy() {
	for i := range p.untouched {
		p.pm.Release(p.pm.Frame(p.base + mem.FrameID(i)))
	}
	for _, f := range p.free {
		p.pm.Release(f)
	}
	p.untouched, p.free = 0, nil
}

// OutboardMemory is the staging memory of a store-and-forward adapter
// (Section 6.2.3).
type OutboardMemory struct {
	capacity int
	used     int
	hwm      stats.HighWater // staged bytes, high-water tracked
	tr       *trace.Tracer
	idle     []*OutboardBuffer // freed buffer records, for the next Alloc
}

// SetTracer installs (or with nil removes) a tracer on the adapter
// memory; staged buffers inherit it for their host-DMA events.
func (o *OutboardMemory) SetTracer(tr *trace.Tracer) { o.tr = tr }

// NewOutboardMemory creates adapter memory of the given byte capacity.
func NewOutboardMemory(capacity int) *OutboardMemory {
	return &OutboardMemory{capacity: capacity}
}

// Free returns the unallocated outboard bytes.
func (o *OutboardMemory) Free() int { return o.capacity - o.used }

// Capacity returns the total outboard bytes; Free() == Capacity() when
// every staged buffer has been released.
func (o *OutboardMemory) Capacity() int { return o.capacity }

// HighWater returns the most outboard bytes ever simultaneously staged.
func (o *OutboardMemory) HighWater() int { return o.hwm.High() }

// Underflows reports how often the staged-bytes gauge was driven below
// zero — a double Free of an outboard buffer.
func (o *OutboardMemory) Underflows() uint64 { return o.hwm.Underflows() }

// Reset discards all staged buffers, returning the adapter memory to
// its post-construction state (high-water mark included). Outstanding
// OutboardBuffers become orphans; their Free calls are no longer
// meaningful and must not follow a Reset.
func (o *OutboardMemory) Reset() {
	o.used = 0
	o.hwm.Reset()
}

// Alloc stages an n-byte buffer in outboard memory.
func (o *OutboardMemory) Alloc(n int) (*OutboardBuffer, error) {
	if o.used+n > o.capacity {
		return nil, fmt.Errorf("%w: need %d, free %d", ErrOutboardFull, n, o.capacity-o.used)
	}
	o.used += n
	o.hwm.Set(o.used)
	if o.tr != nil {
		o.tr.Instant(trace.CatNet, "net.outboard.stage", n)
	}
	var b *OutboardBuffer
	if k := len(o.idle) - 1; k >= 0 {
		b = o.idle[k]
		o.idle[k] = nil
		o.idle = o.idle[:k]
	} else {
		b = new(OutboardBuffer)
	}
	*b = OutboardBuffer{mem: o, n: n}
	return b, nil
}

// OutboardBuffer is a staged frame in adapter memory. Its contents are
// held as a data-plane buffer: staging a bytes-plane payload splices a
// literal run, a symbolic payload splices descriptors — either way the
// adapter never materializes a second copy of the datagram. Until the
// first write the contents are n zero bytes. A freed buffer's record
// goes back to its memory for a later Alloc, so a holder must not use
// it after Free.
type OutboardBuffer struct {
	mem     *OutboardMemory
	n       int
	content mem.Buf // nil until the first write: n zero bytes
	wire    bool    // content is a whole wire buffer, returned at Free
	freed   bool
}

// Len returns the staged payload length.
func (b *OutboardBuffer) Len() int { return b.n }

// writeAt stages data at byte offset off (fragment reassembly lands
// fragments at their datagram offsets).
func (b *OutboardBuffer) writeAt(off int, data mem.Buf) {
	if off == 0 && data.Len() == b.n {
		b.content = data
		return
	}
	if b.content.Len() == 0 {
		b.content = mem.ZeroBuf(b.n)
	}
	head := b.content.Slice(0, off)
	tail := b.content.Slice(off+data.Len(), b.n-off-data.Len())
	b.content = head.Append(data).Append(tail)
}

// DMAToHost transfers the staged payload into a host target — the
// dispose-time DMA of outboard input.
func (b *OutboardBuffer) DMAToHost(target DMATarget) {
	limit := min(b.n, target.Len())
	target.DMAWrite(0, b.Buf().Slice(0, limit))
	if b.mem.tr != nil {
		b.mem.tr.Instant(trace.CatNet, "net.outboard.dma", limit)
	}
}

// Bytes materializes the staged payload (for checksum engines and
// tests).
func (b *OutboardBuffer) Bytes() []byte { return b.Buf().Resolve() }

// Buf returns the staged payload as a data-plane buffer.
func (b *OutboardBuffer) Buf() mem.Buf {
	if b.content.Len() != b.n {
		return mem.ZeroBuf(b.n)
	}
	return b.content
}

// Free returns the buffer's space to the adapter, and a staged wire
// buffer to mem's pool.
func (b *OutboardBuffer) Free() {
	if b.freed {
		panic("netsim: double free of outboard buffer")
	}
	b.freed = true
	if b.wire {
		putWire(b.content)
	}
	b.mem.used -= b.n
	b.mem.hwm.Set(b.mem.used)
	b.content = mem.Buf{}
	b.mem.idle = append(b.mem.idle, b)
}
