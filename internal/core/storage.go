package core

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/pagecache"
	"repro/internal/sim"
	"repro/internal/vm"
)

// The storage data path: the buffering-semantics taxonomy applied to
// file I/O. A simulated block device sits under a kernel page cache,
// and read()/write()/mmap-style operations move data between the cache
// and application buffers with exactly the allocation/integrity
// trade-offs the paper studies on the network path:
//
//   read():  copy           — copyout from cache pages to the app buffer
//            emulated copy  — page flip: aligned cache pages are donated
//                             into the app's address space (consuming
//                             the cache entry), partial tails copied
//            share families — in-place device DMA into referenced app
//                             pages, bypassing the cache (dirty cached
//                             pages of the range are written back
//                             first, as O_DIRECT does)
//            move families  — a system-allocated region built from
//                             donated cache pages (the mmap-style op)
//   write(): copy           — copyin into cache pages (write-behind)
//            emulated copy  — TCOW-protected in-place read of the app
//                             buffer, spliced into the cache
//            share families — referenced (share: wired) in-place read
//            move families  — the whole moved-in region is consumed,
//                             its content spliced into the cache
//   Sendfile: cache fill + reference + adapter transmit — the combined
//            disk-to-net pipeline, with the receiving host free to
//            post its input under any semantics.
//
// Costs are charged through the same cost.Model primitives as the
// network path (Copyout, Copyin, Swap, Reference, Wire, ...), so the
// copy-vs-move crossover structure of Table 7 reappears on the storage
// path; device time comes from the blockdev model and is reported
// separately from CPU.

// ErrBlockAligned reports a storage operation whose file offset or
// destination violates the path's alignment contract.
var ErrBlockAligned = fmt.Errorf("core: storage op must start on a block boundary")

// DiskConfig parameterizes one host's storage stack.
type DiskConfig struct {
	// Disk prices the device; the zero value takes blockdev defaults.
	Disk blockdev.Model
	// DiskBlocks is the device capacity in blocks (pages); 0 → 1024.
	DiskBlocks int
	// CachePages is the page cache capacity; 0 → 64.
	CachePages int
	// ReadAhead is the cache read-ahead in blocks.
	ReadAhead int
	// DirtyThreshold is the writeback-burst threshold in dirty pages;
	// 0 disables threshold writeback (Sync/eviction only).
	DirtyThreshold int
}

func (c DiskConfig) normalized() DiskConfig {
	if c.DiskBlocks == 0 {
		c.DiskBlocks = 1024
	}
	if c.CachePages == 0 {
		c.CachePages = 64
	}
	return c
}

// StorageStats counts storage data path events.
type StorageStats struct {
	Reads        uint64
	Writes       uint64
	Sendfiles    uint64
	PageFlips    uint64 // pages donated to the app by emulated-copy reads
	Donations    uint64 // pages donated into move-family regions
	DirectReads  uint64 // cache-bypass in-place reads (share family)
	DirectBlocks uint64 // blocks moved by cache-bypass reads
}

// Storage is one host's storage stack: device plus page cache, wired
// to the host's Genie for cost charging and instrumentation.
type Storage struct {
	g     *Genie
	cfg   DiskConfig
	dev   *blockdev.Device
	cache *pagecache.Cache
	stats StorageStats
	// stage is the transfer stage (staged) of copy reads: a copyout
	// read lands in it and is poked into the application buffer, so
	// each byte is copied once into the stage and once into its
	// destination. Writes need no stage (writeSource).
	stage []byte
	// extents holds a bytes-plane copy write's source windows, reused
	// by every write.
	extents []vm.Extent
}

// NewStorage attaches a storage stack to a host. Construction
// allocates no frames, so the host's frame-id sequence matches a host
// without storage until the first file operation.
func NewStorage(h *Host, cfg DiskConfig) (*Storage, error) {
	cfg = cfg.normalized()
	dev, err := blockdev.New(h.Genie.Engine(), cfg.Disk, h.Sys.PageSize(), cfg.DiskBlocks)
	if err != nil {
		return nil, err
	}
	cache, err := pagecache.New(h.Sys, dev, pagecache.Config{
		Pages:          cfg.CachePages,
		ReadAhead:      cfg.ReadAhead,
		DirtyThreshold: cfg.DirtyThreshold,
	})
	if err != nil {
		return nil, err
	}
	return &Storage{g: h.Genie, cfg: cfg, dev: dev, cache: cache}, nil
}

// Device returns the underlying block device.
func (s *Storage) Device() *blockdev.Device { return s.dev }

// Cache returns the page cache.
func (s *Storage) Cache() *pagecache.Cache { return s.cache }

// Stats returns a snapshot of the storage counters.
func (s *Storage) Stats() StorageStats { return s.stats }

// Reacquire rebuilds the stack after the owning testbed was Reset:
// the device clears to empty media and the cache reattaches to the
// reset VM system. Call it immediately after Testbed.Reset, before
// creating processes, so VM object ids match a fresh build.
func (s *Storage) Reacquire() {
	s.dev.Reset()
	s.cache.Reacquire()
	s.stats = StorageStats{}
}

// CheckConservation audits the storage stack at quiescence: the cache's
// internal accounting holds, and every block the device served is
// explained by a cache fill or a cache-bypass read.
func (s *Storage) CheckConservation() error {
	if err := s.cache.CheckConservation(); err != nil {
		return err
	}
	ct := s.cache.Counters()
	if got, want := s.dev.Stats().BlocksRead, ct.Misses+ct.ReadAheads+s.stats.DirectBlocks; got != want {
		return fmt.Errorf("core: storage conservation: device read %d blocks, accounted %d (misses %d + readaheads %d + direct %d)",
			got, want, ct.Misses, ct.ReadAheads, s.stats.DirectBlocks)
	}
	return nil
}

// FileOp tracks one storage operation.
type FileOp struct {
	Sem Semantics
	Len int

	StartedAt   sim.Time
	CompletedAt sim.Time
	CPU         float64 // microseconds charged to the CPU
	DeviceWait  float64 // microseconds of device time on the latency path

	// Addr/Region report where a system-allocated read landed.
	Addr   vm.Addr
	Region *vm.Region
	// Flipped counts pages an emulated-copy read donated to the app.
	Flipped int

	Done bool
	Err  error
}

// sctx returns the trace/instrumentation context of a storage op.
func (op *FileOp) sctx() opCtx { return opCtx{sem: op.Sem.String(), port: -1} }

// blockSpan returns the blocks covered by length bytes from block.
func (s *Storage) blockSpan(length int) int {
	bs := s.dev.BlockSize()
	return (length + bs - 1) / bs
}

func (s *Storage) checkOp(block, length int) error {
	if length <= 0 || block < 0 || block+s.blockSpan(length) > s.dev.NumBlocks() {
		return fmt.Errorf("%w: [block %d, +%d bytes)", ErrBadBuffer, block, length)
	}
	return nil
}

// FileRead reads length bytes starting at file block into the process
// under the chosen semantics: the receive side with the page cache as
// the staging place. For application-allocated semantics the data lands
// at va; for the move family va is ignored and the system allocates the
// buffer (reported in op.Region/op.Addr). The call is asynchronous on
// the simulated clock; run the engine to completion. A read that fails
// leaves the cache and the process as it found them.
func (s *Storage) FileRead(p *Process, sem Semantics, block, length int, va vm.Addr) (*FileOp, error) {
	g := s.g
	if !sem.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if err := s.checkOp(block, length); err != nil {
		return nil, err
	}
	op := &FileOp{Sem: sem, Len: length, StartedAt: g.eng.Now(), Addr: va}
	s.stats.Reads++
	bs := s.dev.BlockSize()

	var (
		buf  [4]Charge // prep's backing store, kept off the heap
		wait sim.Duration
		done vmWork
		src  *source // the share family's held application pages
		err  error
	)
	prep, plan := planFileRead(buf[:0], sem, length, int(va)%bs, bs)
	switch sem {
	case Copy:
		wait, err = s.readStaged(p, block, length, va)

	case EmulatedCopy:
		// Page flip: aligned destinations receive whole cache pages by
		// swapping them into the application's address space — the
		// storage twin of input page swapping (Section 5.2), without
		// reverse copyout. The donated entries leave the cache, so
		// flipped reads trade hit ratio for copy avoidance. Unaligned
		// destinations and the partial tail are copied out.
		full := plan.flipped
		if full > 0 {
			flip := kernelBuffer{frames: make([]*mem.Frame, full)}
			if wait, err = s.cache.TakeFrames(block, flip.frames); err != nil {
				return nil, err
			}
			if done, err = g.swapIn(p.as, va, full*bs, &flip, false); err != nil {
				return nil, err
			}
			done.flipped = done.swapped / bs
			op.Flipped = done.flipped
			s.stats.PageFlips += uint64(done.flipped)
		}
		if tail := length - full*bs; tail > 0 {
			var w sim.Duration
			w, err = s.readStaged(p, block+full, tail, va+vm.Addr(full*bs))
			wait += w
		}

	case Share, EmulatedShare:
		// In-place file input: the device DMAs straight into referenced
		// application pages, bypassing the cache — direct I/O. Share
		// wires the pages (pageout protection); emulated share relies on
		// the reference counts alone.
		src = new(source)
		src.init(p, sem)
		if err := p.as.ReferenceRangeInto(&src.ownRef, va, length, true); err != nil {
			return nil, err
		}
		src.hold(&src.ownRef)
		blocks := s.blockSpan(length)
		// Direct I/O stays coherent with the cache: dirty cached pages
		// of the range reach the media before the device serves it.
		s.cache.WriteBackRange(block, blocks)
		// The arm serializes: the read's wait covers the writebacks.
		if wait, err = s.dev.Read(block, blocks, &src.ownRef); err != nil {
			src.abort()
			return nil, err
		}
		s.stats.DirectReads++
		s.stats.DirectBlocks += uint64(blocks)

	default:
		// The move family (the mmap-style operation): a fresh moved-in
		// region built from pages donated straight out of the cache — no
		// copy at any size, at the price of region bookkeeping and (for
		// the non-emulated variants) wiring.
		blocks := s.blockSpan(length)
		donated := make([]*mem.Frame, blocks)
		if wait, err = s.cache.TakeFrames(block, donated); err != nil {
			return nil, err
		}
		r, err := p.adoptRegion(blocks*bs, donated)
		if err != nil {
			g.putFrames(nil, donated)
			return nil, err
		}
		done.flipped = len(donated)
		s.stats.Donations += uint64(blocks)
		if err := r.MarkMovedIn(); err != nil {
			return nil, err
		}
		if !sem.Emulated() {
			// Transient scaffolding: the non-emulated variants wire the
			// pages against pageout while the fill is in flight, then
			// hand the application a pageable moved-in region.
			if err := p.as.WireRange(r.Start(), blocks*bs); err != nil {
				return nil, err
			}
			if err := p.as.UnwireRange(r.Start(), blocks*bs); err != nil {
				return nil, err
			}
		}
		op.Region, op.Addr = r, r.Start()
	}
	if err == nil {
		err = plan.check("file read", sem, done)
	}
	if err != nil {
		return nil, err
	}
	prepDur := g.chargeSet(StagePrepare, op.sctx(), prep, &op.CPU)
	op.DeviceWait = wait.Micros()
	g.eng.Schedule(prepDur+wait, func() {
		if src != nil {
			src.unhold()
		}
		var ch [2]Charge
		d := g.chargeSet(StageDispose, op.sctx(), planFileReadDispose(ch[:0], sem, length), &op.CPU)
		op.CompletedAt = g.eng.Now().Add(d)
		op.Done = true
	})
	return op, nil
}

// FileWrite writes length bytes from the process to the file starting
// at block, under the chosen semantics, with Table 2's sender-side
// prepare/dispose sequences. Copy is the one exception: the cache page
// is the system buffer, so a copyin is the whole cost and nothing is
// disposed. For the move family, va must be the start of a moved-in
// region, which the write consumes. A write that fails leaves the
// buffer as it was: a failed move-family write does not consume its
// region.
func (s *Storage) FileWrite(p *Process, sem Semantics, block, length int, va vm.Addr) (*FileOp, error) {
	g := s.g
	if !sem.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if err := s.checkOp(block, length); err != nil {
		return nil, err
	}
	op := &FileOp{Sem: sem, Len: length, StartedAt: g.eng.Now()}
	s.stats.Writes++

	var (
		buf  [6]Charge // prep's backing store, kept off the heap
		prep []Charge
		src  *source
	)
	if sem == Copy {
		prep = append(buf[:0], Charge{cost.Copyin, length})
	} else {
		segs := []Segment{{va, length}}
		prep = planOutputPrepare(buf[:0], g.cfg, sem, false, segs)
		src = new(source)
		if err := p.reference(src, sem, segs); err != nil {
			return nil, err
		}
	}
	wait, err := s.writeSource(p, src, block, va, length)
	if err != nil {
		if src != nil {
			src.abort() // no device will read the held pages
		}
		return nil, err
	}
	prepDur := g.chargeSet(StagePrepare, op.sctx(), prep, &op.CPU)
	op.DeviceWait = wait.Micros()
	g.eng.Schedule(prepDur+wait, func() {
		var dispose []Charge
		if src != nil {
			var ch [4]Charge
			dispose = planOutputDispose(ch[:0], sem, []Segment{{va, length}})
			op.Err = src.release()
		}
		d := g.chargeSet(StageDispose, op.sctx(), dispose, &op.CPU)
		op.CompletedAt = g.eng.Now().Add(d)
		op.Done = true
	})
	return op, nil
}

// readStaged is the copyout read: n cache bytes from block into the
// stage, then into the application buffer at va. On the symbolic plane
// the frames clone the staged bytes (copy-on-store), so the borrowed
// stage never leaks into a result.
func (s *Storage) readStaged(p *Process, block, n int, va vm.Addr) (sim.Duration, error) {
	stage := staged(&s.stage, n)
	wait, err := s.cache.ReadRange(block, 0, stage)
	if err != nil {
		return wait, err
	}
	return wait, p.as.PokeBuf(va, mem.BufBytes(stage))
}

// writeSource stores the n source bytes of a FileWrite in the cache
// from block on: the referenced pages of src, or for a copy (src nil)
// the application's buffer at va. On the bytes plane each byte goes
// straight from its application frame into its cache page
// (WriteGather); on the symbolic plane the source's runs are gathered
// and spliced in. A copy source is faulted in whole before the cache
// changes, so a fault fails the write and leaves the cache as it was.
func (s *Storage) writeSource(p *Process, src *source, block int, va vm.Addr, n int) (sim.Duration, error) {
	if s.g.sys.Phys().Symbolic() {
		var content mem.Buf
		if src != nil {
			content = src.refs[0].DMAReadBuf(0, n)
		} else {
			var err error
			if content, err = p.as.PeekBuf(va, n); err != nil {
				return 0, err
			}
		}
		return s.cache.WriteRange(block, 0, content)
	}
	if src != nil {
		return s.cache.WriteGather(block, 0, src.refs[0].Extents())
	}
	if err := s.faultSource(p, va, n); err != nil {
		return 0, err
	}
	return s.cache.WriteGather(block, 0, s.extents)
}

// faultSource faults in the n bytes of the application's buffer at va
// with an application read's fault handling, page by page in address
// order as a copyin's read does (a one-byte Peek of each page), and
// records in s.extents the frame windows that hold them.
func (s *Storage) faultSource(p *Process, va vm.Addr, n int) error {
	ps := s.dev.BlockSize()
	s.extents = s.extents[:0]
	var probe [1]byte
	for off := 0; off < n; {
		a := va + vm.Addr(off)
		pgOff := int(a % vm.Addr(ps))
		k := min(ps-pgOff, n-off)
		if err := p.as.Peek(a, probe[:]); err != nil {
			return err
		}
		pte, _ := p.as.PTEAt(a)
		s.extents = append(s.extents, vm.Extent{Frame: pte.Frame, Off: pgOff, Len: k})
		off += k
	}
	return nil
}

// Sendfile transmits length file bytes starting at block out of the
// page cache onto the network — the disk-to-net pipeline. The cache
// pages are referenced for the transfer and unreferenced at adapter
// completion; no application buffer is involved on the sending host.
// The receiving host posts its input under whatever semantics it
// chooses, which is where the taxonomy meets the pipeline.
func (s *Storage) Sendfile(port, block, length int) (*FileOp, error) {
	g := s.g
	if length <= 0 || length > netsim.MaxFrame {
		return nil, fmt.Errorf("%w: length %d", ErrBadBuffer, length)
	}
	if err := s.checkOp(block, length); err != nil {
		return nil, err
	}
	op := &FileOp{Sem: Share, Len: length, StartedAt: g.eng.Now()}
	s.stats.Sendfiles++
	// The cache read is the frame's wire buffer: the receiving adapter
	// hands it back to the pool once it has copied it out.
	buf := mem.GetWire(length)
	wait, err := s.cache.ReadRange(block, 0, buf)
	if err != nil {
		mem.PutWire(buf)
		return nil, err
	}
	prepDur := g.chargeSet(StagePrepare, op.sctx(), []Charge{{cost.Reference, length}}, &op.CPU)
	op.DeviceWait = wait.Micros()
	g.eng.Schedule(prepDur+wait, func() {
		err := g.nic.TransmitDatagramWire(port, mem.BufBytes(buf), func() {
			d := g.chargeSet(StageDispose, op.sctx(), []Charge{{cost.Unreference, length}}, &op.CPU)
			op.CompletedAt = g.eng.Now().Add(d)
			op.Done = true
		})
		if err != nil {
			op.Err = err
			op.Done = true
		}
	})
	return op, nil
}

// Sync flushes the cache's dirty pages to the device, returning the
// device wait.
func (s *Storage) Sync() sim.Duration { return s.cache.Sync() }
