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
package pagecache

import (
	"fmt"
	"slices"

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

// entry is one resident block.
type entry struct {
	block      int
	frame      *mem.Frame
	dirty      bool
	prev, next *entry // LRU list, most recent at head
}

// Cache is the page cache of one host over one device. It is not safe
// for concurrent use; like every layer of the simulation, it belongs
// to a single engine goroutine.
type Cache struct {
	sys *vm.System
	dev *blockdev.Device
	cfg Config

	obj     *vm.MemObject
	entries map[int]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	ndirty  int
	flush   []int // flushDirty's block list, reused across bursts

	counters   Counters
	residentHW stats.HighWater
	dirtyHW    stats.HighWater
}

// New builds a cache over dev. The device block size must equal the VM
// page size. Construction allocates no frames (pages materialize on
// first use), so a cache built on a recycled system is frame-for-frame
// identical to one built fresh.
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
	return &Cache{
		sys:     sys,
		dev:     dev,
		cfg:     cfg,
		obj:     sys.NewKernelObject(),
		entries: make(map[int]*entry),
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Counters returns a snapshot of the activity counters.
func (c *Cache) Counters() Counters { return c.counters }

// Resident returns the number of resident pages.
func (c *Cache) Resident() int { return len(c.entries) }

// Dirty returns the number of dirty pages.
func (c *Cache) Dirty() int { return c.ndirty }

// ResidentHighWater returns the most pages ever simultaneously resident.
func (c *Cache) ResidentHighWater() int { return c.residentHW.High() }

// DirtyHighWater returns the most pages ever simultaneously dirty.
func (c *Cache) DirtyHighWater() int { return c.dirtyHW.High() }

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
	c.residentHW.Set(len(c.entries))
	c.dirtyHW.Set(c.ndirty)
}

// markDirty transitions an entry to dirty and fires the writeback
// burst when the threshold is reached. Returns the burst wait (zero
// when no burst fired).
func (c *Cache) markDirty(e *entry) sim.Duration {
	if !e.dirty {
		e.dirty = true
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
// therefore every digest) independent of access history details like
// map iteration.
func (c *Cache) flushDirty() sim.Duration {
	c.flush = c.flush[:0]
	for b, e := range c.entries {
		if e.dirty {
			c.flush = append(c.flush, b)
		}
	}
	slices.Sort(c.flush)
	var wait sim.Duration
	for _, b := range c.flush {
		wait = c.writeBack(c.entries[b]) // sequential on the arm: the last write's wait covers all
	}
	c.gauge()
	return wait
}

// WriteBackRange writes back the dirty resident pages among
// [block, block+count) in ascending block order, leaving them resident
// and clean. A cache-bypassing read calls it first, as O_DIRECT does,
// so the device never serves media older than the cache's own writes;
// the device queues the writes, so that read's wait already covers them.
func (c *Cache) WriteBackRange(block, count int) {
	for b := block; b < block+count; b++ {
		if e, ok := c.entries[b]; ok && e.dirty {
			c.writeBack(e)
		}
	}
	c.gauge()
}

// writeBack writes a dirty page to the device and marks it clean,
// returning the device wait. The caller re-levels the gauges.
func (c *Cache) writeBack(e *entry) sim.Duration {
	// The device copies the borrowed page into media it owns.
	w, err := c.dev.Write(e.block, e.frame.BorrowBuf())
	if err != nil {
		// Resident blocks are in device range by construction.
		panic(fmt.Sprintf("pagecache: writeback of block %d: %v", e.block, err))
	}
	e.dirty = false
	c.ndirty--
	c.counters.Writebacks++
	return w
}

// evictFor evicts least-recently-used pages until need more pages fit
// within capacity. Dirty victims are written back first.
func (c *Cache) evictFor(need int) sim.Duration {
	var wait sim.Duration
	for len(c.entries)+need > c.cfg.Pages && c.tail != nil {
		e := c.tail
		if e.dirty {
			wait = c.writeBack(e)
		}
		c.lruUnlink(e)
		delete(c.entries, e.block)
		c.obj.RemoveKernelPage(e.block)
		c.sys.Phys().Release(e.frame)
		c.counters.Evictions++
	}
	c.gauge()
	return wait
}

// insert materializes a frame for block and links it as MRU. The
// caller fills content.
func (c *Cache) insert(block int) (*entry, sim.Duration, error) {
	wait := c.evictFor(1)
	f, err := c.sys.AllocFrameInto(c.obj, block)
	if err != nil {
		return nil, wait, fmt.Errorf("pagecache: fill block %d: %w", block, err)
	}
	e := &entry{block: block, frame: f}
	c.entries[block] = e
	c.lruFront(e)
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
	for run < maxRun && block+run < c.dev.NumBlocks() {
		if _, ok := c.entries[block+run]; ok {
			break
		}
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
	if e, ok := c.entries[block]; ok {
		c.counters.Hits++
		c.lruFront(e)
		return e, 0, nil
	}
	wait, err := c.fill(block)
	if err != nil {
		return nil, wait, err
	}
	e := c.entries[block]
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
	bs := c.dev.BlockSize()
	var wait sim.Duration
	pos := block + off/bs
	off %= bs
	for data.Len() > 0 {
		k := min(bs-off, data.Len())
		e, ok := c.entries[pos]
		switch {
		case ok:
			c.counters.Hits++
			c.lruFront(e)
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
			e = c.entries[pos]
			c.lruFront(e)
		}
		e.frame.WriteBuf(off, data.Slice(0, k))
		wait += c.markDirty(e)
		data = data.Slice(k, data.Len()-k)
		off = 0
		pos++
	}
	return wait, nil
}

// TakeFrame removes block's page from the cache and returns its frame
// — the donation primitive behind page-flip reads and move-family
// file input. A missing block is filled first; a dirty one is written
// back before leaving (the application receives the page, the device
// must not lose the data). The caller owns the frame.
func (c *Cache) TakeFrame(block int) (*mem.Frame, sim.Duration, error) {
	e, wait, err := c.require(block)
	if err != nil {
		return nil, wait, err
	}
	if e.dirty {
		wait += c.writeBack(e)
	}
	c.lruUnlink(e)
	delete(c.entries, e.block)
	c.obj.RemoveKernelPage(e.block)
	c.counters.Consumed++
	c.gauge()
	return e.frame, wait, nil
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
		e := c.tail
		c.lruUnlink(e)
		delete(c.entries, e.block)
		c.obj.RemoveKernelPage(e.block)
		c.sys.Phys().Release(e.frame)
		c.counters.Evictions++
	}
	c.gauge()
	return wait
}

// CheckConservation verifies the cache's internal accounting: the
// entry map, LRU list, kernel object residency, and dirty count agree,
// occupancy gauges never underflowed, and residency never exceeded
// capacity.
func (c *Cache) CheckConservation() error {
	n, dirty := 0, 0
	for e := c.head; e != nil; e = e.next {
		n++
		if e.dirty {
			dirty++
		}
		if c.entries[e.block] != e {
			return fmt.Errorf("pagecache: LRU entry for block %d not in map", e.block)
		}
	}
	if n != len(c.entries) {
		return fmt.Errorf("pagecache: LRU holds %d entries, map %d", n, len(c.entries))
	}
	if dirty != c.ndirty {
		return fmt.Errorf("pagecache: dirty count %d, list says %d", c.ndirty, dirty)
	}
	if c.obj.ResidentPages() != len(c.entries) {
		return fmt.Errorf("pagecache: object holds %d pages, cache %d", c.obj.ResidentPages(), len(c.entries))
	}
	if len(c.entries) > c.cfg.Pages {
		return fmt.Errorf("pagecache: %d resident pages exceed capacity %d", len(c.entries), c.cfg.Pages)
	}
	if u := c.residentHW.Underflows() + c.dirtyHW.Underflows(); u != 0 {
		return fmt.Errorf("pagecache: occupancy gauge underflowed %d times", u)
	}
	return nil
}

// Reacquire rebuilds the cache after its VM system was Reset wholesale:
// stale entries and the stale kernel object are discarded and a fresh
// object is created. Call it in the same construction order as New
// (right after the testbed reset) so object ids — and therefore
// deterministic pageout scan order — match a fresh build.
func (c *Cache) Reacquire() {
	clear(c.entries)
	c.head, c.tail = nil, nil
	c.ndirty = 0
	c.counters = Counters{}
	c.residentHW.Reset()
	c.dirtyHW.Reset()
	c.obj = c.sys.NewKernelObject()
}
