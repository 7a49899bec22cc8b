// Package pagecache implements a kernel page cache over a simulated
// block device: read-ahead on misses, dirty-page tracking with
// threshold-triggered writeback bursts, LRU eviction, and full
// hit/miss/eviction accounting. Cache pages are physical frames
// attached to a kernel memory object (the same structure system
// buffers use), and content moves as mem.Buf values — on the symbolic
// plane a payload keeps its provenance descriptors across the disk
// round trip, which is what lets the determinism oracle checksum file
// content the same way it checksums wire content.
//
// One cache block is one page: the cache's unit of residency, dirty
// tracking, and donation is exactly the VM page, so page-flip reads
// and move-family donation need no partial-page cases.
//
// Writes copy each byte once on the host. A write lands straight in its
// cache page (WriteGather reads a bytes-plane source from the
// application's frames, with no stage), and writeback hands the device
// the page itself (blockdev's Share): a clean resident page and its
// device block share one backing store until one side moves on. Every
// path that changes or gives away a shared page ends the share first
// (unshare): the block takes the page's store as its own and the frame
// takes the block's former storage in exchange (mem's ExchangeData),
// so eviction and Drop copy nothing, while a partial rewrite or a
// donation copies the page once into its new storage. Reacquire follows
// a device Reset, which ends every share, so it just forgets them. Dirty pages
// are tracked in a per-block bitmap, so writeback walks the dirty
// blocks in ascending order without scanning the block index.
package pagecache

import (
	"fmt"
	"math/bits"

	"repro/internal/blockdev"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Config sizes the cache and its writeback policy.
type Config struct {
	// Pages is the cache capacity in pages (blocks).
	Pages int
	// ReadAhead is how many blocks beyond a missed block one fill
	// fetches (clipped at the device end and at already-resident
	// blocks). 0 disables read-ahead.
	ReadAhead int
	// DirtyThreshold triggers a writeback burst when the dirty page
	// count reaches it; 0 means dirty pages are written back only by
	// eviction and Sync.
	DirtyThreshold int
}

// Counters counts cache activity since construction or Reacquire.
type Counters struct {
	Hits       uint64 // accesses satisfied by a resident page
	Misses     uint64 // accesses that had to fill from the device
	ReadAheads uint64 // blocks fetched speculatively beyond a miss
	Evictions  uint64 // pages evicted for capacity
	Writebacks uint64 // dirty pages written to the device
	Bursts     uint64 // threshold-triggered writeback bursts
	Consumed   uint64 // pages donated out of the cache (page flips, moves)
}

// entry is one resident block. An unlinked entry waits on the cache's
// idle list, chained through next, until the next insert reuses it.
type entry struct {
	block      int
	frame      *mem.Frame
	shared     bool   // clean, and its device block shares the frame's bytes-plane store
	prev, next *entry // LRU list, most recent at head
}

// Cache is the page cache of one host over one device. It is not safe
// for concurrent use; like every layer of the simulation, it belongs
// to a single engine goroutine.
type Cache struct {
	sys *vm.System
	dev *blockdev.Device
	cfg Config

	obj       *vm.MemObject
	index     []*entry // resident entry by block, nil when not resident
	dirtyBits []uint64 // bit b%64 of word b/64 is set when block b's page is resident and dirty
	resident  int
	idle      *entry // unlinked entries kept for reuse
	head      *entry // most recently used
	tail      *entry // least recently used
	ndirty    int

	counters   Counters
	residentHW stats.HighWater
	dirtyHW    stats.HighWater
}

// New builds a cache over dev. The device block size must equal the VM
// page size. Construction allocates no frames (pages materialize on
// first use), so a cache built on a recycled system is frame-for-frame
// identical to one built fresh. The block index holds one pointer per
// device block, and the dirty bitmap one bit.
func New(sys *vm.System, dev *blockdev.Device, cfg Config) (*Cache, error) {
	if dev.BlockSize() != sys.PageSize() {
		return nil, fmt.Errorf("pagecache: block size %d != page size %d", dev.BlockSize(), sys.PageSize())
	}
	if cfg.Pages <= 0 {
		return nil, fmt.Errorf("pagecache: capacity %d pages", cfg.Pages)
	}
	if cfg.ReadAhead < 0 || cfg.DirtyThreshold < 0 {
		return nil, fmt.Errorf("pagecache: negative policy (readahead %d, dirty %d)", cfg.ReadAhead, cfg.DirtyThreshold)
	}
	// The pageout daemon may not take the cache's pages: the block index
	// would keep pointing at a reclaimed frame. The cache frees pages
	// only through its LRU.
	obj := sys.NewKernelObject()
	obj.ExcludeFromPageout()
	return &Cache{
		sys:       sys,
		dev:       dev,
		cfg:       cfg,
		obj:       obj,
		index:     make([]*entry, dev.NumBlocks()),
		dirtyBits: make([]uint64, (dev.NumBlocks()+63)/64),
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Counters returns a snapshot of the activity counters.
func (c *Cache) Counters() Counters { return c.counters }

// Resident returns the number of resident pages.
func (c *Cache) Resident() int { return c.resident }

// Dirty returns the number of dirty pages.
func (c *Cache) Dirty() int { return c.ndirty }

// DirtyHighWater returns the most pages ever simultaneously dirty.
func (c *Cache) DirtyHighWater() int { return c.dirtyHW.High() }

// lookup returns block's entry, or nil when the block is not resident.
// A block outside the device is never resident.
func (c *Cache) lookup(block int) *entry {
	if uint(block) < uint(len(c.index)) {
		return c.index[block]
	}
	return nil
}

// link makes f block's resident page, clean and most recently used,
// reusing an idle entry when there is one. The caller has attached f
// to the kernel object.
func (c *Cache) link(block int, f *mem.Frame) *entry {
	e := c.idle
	if e != nil {
		c.idle = e.next
		e.next = nil
	} else {
		e = &entry{}
	}
	e.block, e.frame = block, f
	c.index[block] = e
	c.resident++
	c.lruFront(e)
	return e
}

// unlink removes e from the cache and the kernel object and returns its
// frame, which the caller releases or hands on; e goes to the idle list.
func (c *Cache) unlink(e *entry) *mem.Frame {
	c.lruUnlink(e)
	c.obj.RemoveKernelPage(e.block)
	f := e.frame
	c.idleEntry(e)
	return f
}

// idleEntry drops e from the block index and parks it on the idle list.
func (c *Cache) idleEntry(e *entry) {
	c.index[e.block] = nil
	c.resident--
	*e = entry{next: c.idle}
	c.idle = e
}

// lruUnlink removes e from the recency list.
func (c *Cache) lruUnlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// lruFront moves e to the most-recently-used position, linking it if
// it is not yet in the list.
func (c *Cache) lruFront(e *entry) {
	if c.head == e {
		return
	}
	if e.prev != nil || e.next != nil || c.tail == e {
		c.lruUnlink(e)
	}
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// gauge re-levels the occupancy gauges.
func (c *Cache) gauge() {
	c.residentHW.Set(c.resident)
	c.dirtyHW.Set(c.ndirty)
}

// isDirty reports whether e's page is dirty.
func (c *Cache) isDirty(e *entry) bool {
	return c.dirtyBits[e.block/64]&(1<<(e.block%64)) != 0
}

// markDirty transitions an entry to dirty and fires the writeback
// burst when the threshold is reached. Returns the burst wait (zero
// when no burst fired).
func (c *Cache) markDirty(e *entry) sim.Duration {
	if !c.isDirty(e) {
		c.dirtyBits[e.block/64] |= 1 << (e.block % 64)
		c.ndirty++
		c.gauge()
	}
	if c.cfg.DirtyThreshold > 0 && c.ndirty >= c.cfg.DirtyThreshold {
		c.counters.Bursts++
		return c.flushDirty()
	}
	return 0
}

// flushDirty writes every dirty page back in ascending block order —
// the canonical order that keeps the device's seek accounting (and
// therefore every digest) independent of access history.
func (c *Cache) flushDirty() sim.Duration {
	wait := c.writeBackDirty(0, len(c.index))
	c.gauge()
	return wait
}

// WriteBackRange writes back the dirty resident pages among
// [block, block+count) in ascending block order, leaving them resident
// and clean. A cache-bypassing read calls it first, as O_DIRECT does,
// so the device never serves media older than the cache's own writes;
// the device queues the writes, so that read's wait already covers them.
func (c *Cache) WriteBackRange(block, count int) {
	c.writeBackDirty(max(block, 0), min(block+count, len(c.index)))
	c.gauge()
}

// writeBackDirty writes back the dirty pages of blocks [lo, hi) in
// ascending block order, reading the dirty bitmap a word at a time, and
// returns the last write's wait: sequential on the arm, it covers all.
func (c *Cache) writeBackDirty(lo, hi int) sim.Duration {
	var wait sim.Duration
	for w := lo / 64; w*64 < hi && c.ndirty > 0; w++ {
		word := c.dirtyBits[w]
		if n := lo - w*64; n > 0 {
			word &^= 1<<n - 1
		}
		if n := hi - w*64; n < 64 {
			word &= 1<<n - 1
		}
		for ; word != 0; word &= word - 1 {
			wait = c.writeBack(c.index[w*64+bits.TrailingZeros64(word)])
		}
	}
	return wait
}

// writeBack writes a dirty page to the device and marks it clean,
// returning the device wait. The device shares the page rather than
// copying it, so a bytes-plane page leaves shared. The caller re-levels
// the gauges.
func (c *Cache) writeBack(e *entry) sim.Duration {
	page := e.frame.BorrowBuf()
	w, err := c.dev.Share(e.block, page)
	if err != nil {
		// Resident blocks are in device range by construction.
		panic(fmt.Sprintf("pagecache: writeback of block %d: %v", e.block, err))
	}
	e.shared = !page.Symbolic()
	c.dirtyBits[e.block/64] &^= 1 << (e.block % 64)
	c.ndirty--
	c.counters.Writebacks++
	return w
}

// unshare ends e's share with its device block before the page changes
// or leaves: the block takes the page's store as its own, and the frame
// takes the block's former storage in exchange. keep copies the page's
// bytes into that storage, for a page that stays in use with its
// content (a partial rewrite, a donation); a page about to be freed or
// overwritten whole keeps whatever the storage held, so ending its
// share copies nothing.
func (c *Cache) unshare(e *entry, keep bool) {
	page := e.frame.Data()
	e.frame.ExchangeData(c.dev.Unshare(e.block, page))
	if keep {
		e.frame.WriteAt(0, page)
	}
	e.shared = false
}

// release unlinks e and frees its frame, ending any share first.
func (c *Cache) release(e *entry) {
	if e.shared {
		c.unshare(e, false)
	}
	c.sys.Phys().Release(c.unlink(e))
}

// evictFor evicts least-recently-used pages until need more pages fit
// within capacity. Dirty victims are written back first.
func (c *Cache) evictFor(need int) sim.Duration {
	var wait sim.Duration
	for c.resident+need > c.cfg.Pages && c.tail != nil {
		e := c.tail
		if c.isDirty(e) {
			wait = c.writeBack(e)
		}
		c.release(e)
		c.counters.Evictions++
	}
	c.gauge()
	return wait
}

// insert materializes a frame for block and links it as MRU. The
// caller fills content. A block outside the device is an error.
func (c *Cache) insert(block int) (*entry, sim.Duration, error) {
	if uint(block) >= uint(len(c.index)) {
		return nil, 0, fmt.Errorf("pagecache: block %d outside %d-block device", block, len(c.index))
	}
	wait := c.evictFor(1)
	f, err := c.sys.AllocFrameInto(c.obj, block)
	if err != nil {
		return nil, wait, fmt.Errorf("pagecache: fill block %d: %w", block, err)
	}
	e := c.link(block, f)
	c.gauge()
	return e, wait, nil
}

// fill brings block resident (a miss), reading ahead up to cfg.ReadAhead
// further blocks in one contiguous device request. Read-ahead stops at
// the device end, at already-resident blocks, and never exceeds the
// capacity left after the missed block itself.
func (c *Cache) fill(block int) (sim.Duration, error) {
	run := 1
	maxRun := min(1+c.cfg.ReadAhead, c.cfg.Pages)
	for run < maxRun && block+run < c.dev.NumBlocks() && c.lookup(block+run) == nil {
		run++
	}
	blocks, wait, err := c.dev.ReadBlocks(block, run)
	if err != nil {
		return 0, err
	}
	c.counters.Misses++
	c.counters.ReadAheads += uint64(run - 1)
	for i := run - 1; i >= 0; i-- { // insert missed block last so it ends up MRU
		e, evictWait, err := c.insert(block + i)
		if err != nil {
			return wait, err
		}
		wait += evictWait
		e.frame.LoadBuf(blocks[i])
	}
	return wait, nil
}

// require returns block's entry, filling on a miss, and touches LRU.
func (c *Cache) require(block int) (*entry, sim.Duration, error) {
	if e := c.lookup(block); e != nil {
		c.counters.Hits++
		c.lruFront(e)
		return e, 0, nil
	}
	wait, err := c.fill(block)
	if err != nil {
		return nil, wait, err
	}
	e := c.index[block]
	c.lruFront(e)
	return e, wait, nil
}

// EnsureRange brings [block, block+count) resident, returning the
// accumulated device wait.
func (c *Cache) EnsureRange(block, count int) (sim.Duration, error) {
	var wait sim.Duration
	for i := 0; i < count; i++ {
		_, w, err := c.require(block + i)
		if err != nil {
			return wait, err
		}
		wait += w
	}
	return wait, nil
}

// ReadRange reads len(dst) bytes starting at byte off within block's
// run into dst, filling misses, and returns the device wait. Each byte
// is copied once, from its cache page straight into the caller's slice,
// on either data plane. Pages are read as they are required, so a fill
// that evicts an earlier page of the range cannot lose its bytes.
func (c *Cache) ReadRange(block, off int, dst []byte) (sim.Duration, error) {
	bs := c.dev.BlockSize()
	pos := block + off/bs
	off %= bs
	var wait sim.Duration
	for done := 0; done < len(dst); {
		e, w, err := c.require(pos)
		if err != nil {
			return wait, err
		}
		wait += w
		k := min(bs-off, len(dst)-done)
		e.frame.ReadAt(dst[done:done+k], off)
		done += k
		off = 0
		pos++
	}
	return wait, nil
}

// WriteRange stores data at byte off within block's run with
// write-allocate semantics: full-page stores materialize the page
// without a device read, partial-page stores read-modify-write. Dirty
// pages accumulate until the threshold fires a writeback burst; the
// returned wait covers any fills and bursts this call caused.
func (c *Cache) WriteRange(block, off int, data mem.Buf) (sim.Duration, error) {
	return c.write(block, off, data.Len(), func(f *mem.Frame, off, soff, n int) {
		f.WriteBufAt(off, data, soff, n)
	})
}

// WriteGather is WriteRange on the bytes plane with the data read
// straight out of the frame windows src, in order: an application
// buffer's referenced or faulted-in pages. Each byte is copied once,
// from its source frame into its cache page, with no stage. The source
// frames must stay mapped and unchanged for the call, which allocates
// and frees only cache pages.
func (c *Cache) WriteGather(block, off int, src []vm.Extent) (sim.Duration, error) {
	n := 0
	for _, x := range src {
		n += x.Len
	}
	i, pos := 0, 0 // the next source byte: src[i].Off+pos in src[i].Frame
	return c.write(block, off, n, func(f *mem.Frame, off, _, k int) {
		dst := f.Data()[off : off+k]
		for len(dst) > 0 {
			x := src[i]
			k := min(x.Len-pos, len(dst))
			x.Frame.ReadAt(dst[:k], x.Off+pos)
			dst = dst[k:]
			if pos += k; pos == x.Len {
				i, pos = i+1, 0
			}
		}
	})
}

// write is the page loop of WriteRange and WriteGather: it brings each
// page of the n bytes at byte off within block's run resident, ends its
// share, and calls put to store source bytes [soff, soff+k) at page
// offset off, in ascending source order, before marking it dirty.
func (c *Cache) write(block, off, n int, put func(f *mem.Frame, off, soff, k int)) (sim.Duration, error) {
	bs := c.dev.BlockSize()
	var wait sim.Duration
	pos := block + off/bs
	off %= bs
	for done := 0; done < n; {
		k := min(bs-off, n-done)
		e := c.lookup(pos)
		switch {
		case e != nil:
			c.counters.Hits++
			c.lruFront(e)
			if e.shared {
				c.unshare(e, k < bs) // a whole-page store needs none of the old bytes
			}
		case k == bs:
			// Full-page overwrite: no read needed.
			var err error
			var evictWait sim.Duration
			e, evictWait, err = c.insert(pos)
			if err != nil {
				return wait, err
			}
			wait += evictWait
		default:
			w, err := c.fill(pos)
			if err != nil {
				return wait, err
			}
			wait += w
			e = c.index[pos]
			c.lruFront(e)
		}
		put(e.frame, off, done, k)
		wait += c.markDirty(e)
		done += k
		off = 0
		pos++
	}
	return wait, nil
}

// TakeFrame removes block's page from the cache and returns its frame
// — the donation primitive behind page-flip reads and move-family
// file input. A missing block is filled first; a dirty one is written
// back before leaving (the application receives the page, the device
// must not lose the data), and a shared one leaves the device its store
// and takes a copy. The caller owns the frame.
func (c *Cache) TakeFrame(block int) (*mem.Frame, sim.Duration, error) {
	e, wait, err := c.require(block)
	if err != nil {
		return nil, wait, err
	}
	if c.isDirty(e) {
		wait += c.writeBack(e)
	}
	if e.shared {
		c.unshare(e, true)
	}
	f := c.unlink(e)
	c.counters.Consumed++
	c.gauge()
	return f, wait, nil
}

// TakeFrames takes the pages of len(frames) consecutive blocks from
// block into frames, as TakeFrame does for each in turn, and returns
// the summed device wait. It takes all or nothing: when a block cannot
// be taken, the frames already taken return to the cache — resident,
// clean, most recently used and no longer counted as consumed — so a
// failed donation leaves no page owned by nobody.
func (c *Cache) TakeFrames(block int, frames []*mem.Frame) (sim.Duration, error) {
	var wait sim.Duration
	for i := range frames {
		f, w, err := c.TakeFrame(block + i)
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				c.evictFor(1)
				c.obj.InsertKernelPage(block+j, frames[j])
				c.link(block+j, frames[j])
				c.counters.Consumed--
			}
			c.gauge()
			return wait, err
		}
		wait += w
		frames[i] = f
	}
	return wait, nil
}

// Sync writes every dirty page back, returning the device wait. After
// Sync, Dirty() is zero.
func (c *Cache) Sync() sim.Duration {
	return c.flushDirty()
}

// Drop evicts every resident page (writing dirty ones back), returning
// the cache to empty without touching counters' history. Used by
// harness teardown before conservation audits.
func (c *Cache) Drop() sim.Duration {
	wait := c.flushDirty()
	for c.tail != nil {
		c.release(c.tail)
		c.counters.Evictions++
	}
	c.gauge()
	return wait
}

// CheckConservation verifies the cache's internal accounting: the
// block index, resident count, LRU list, kernel object residency, dirty
// count and dirty bitmap agree, no dirty page is shared with the
// device, occupancy gauges never underflowed, and residency never
// exceeded capacity.
func (c *Cache) CheckConservation() error {
	n, dirty := 0, 0
	for e := c.head; e != nil; e = e.next {
		n++
		if c.isDirty(e) {
			dirty++
			if e.shared {
				return fmt.Errorf("pagecache: dirty block %d still shared with the device", e.block)
			}
		}
		if c.lookup(e.block) != e {
			return fmt.Errorf("pagecache: LRU entry for block %d not in index", e.block)
		}
	}
	marked := 0
	for _, w := range c.dirtyBits {
		marked += bits.OnesCount64(w)
	}
	if marked != dirty {
		return fmt.Errorf("pagecache: dirty bitmap marks %d blocks, %d of them resident", marked, dirty)
	}
	indexed := 0
	for _, e := range c.index {
		if e != nil {
			indexed++
		}
	}
	if n != indexed || n != c.resident {
		return fmt.Errorf("pagecache: LRU holds %d entries, index %d, resident count %d", n, indexed, c.resident)
	}
	if dirty != c.ndirty {
		return fmt.Errorf("pagecache: dirty count %d, list says %d", c.ndirty, dirty)
	}
	if c.obj.ResidentPages() != c.resident {
		return fmt.Errorf("pagecache: object holds %d pages, cache %d", c.obj.ResidentPages(), c.resident)
	}
	if c.resident > c.cfg.Pages {
		return fmt.Errorf("pagecache: %d resident pages exceed capacity %d", c.resident, c.cfg.Pages)
	}
	if u := c.residentHW.Underflows() + c.dirtyHW.Underflows(); u != 0 {
		return fmt.Errorf("pagecache: occupancy gauge underflowed %d times", u)
	}
	return nil
}

// Reacquire rebuilds the cache after its VM system was Reset wholesale:
// stale entries go to the idle list and the stale kernel object is
// renewed as a fresh one. Call it in the same construction order as New
// (right after the testbed reset) so object ids — and therefore
// deterministic pageout scan order — match a fresh build. The device
// must be Reset with the system (core.Storage.Reacquire resets it
// first): that ends every share, so Reacquire only forgets them, with
// no device call and no copy.
func (c *Cache) Reacquire() {
	for e := c.head; e != nil; {
		next := e.next
		c.idleEntry(e)
		e = next
	}
	c.head, c.tail = nil, nil
	clear(c.dirtyBits)
	c.ndirty = 0
	c.counters = Counters{}
	c.residentHW.Reset()
	c.dirtyHW.Reset()
	c.obj = c.sys.RenewKernelObject(c.obj)
	c.obj.ExcludeFromPageout()
}
