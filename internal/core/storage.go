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
	stage []byte // bytes-plane FileWrite source, reused by every write
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

// finish schedules the op's dispose charges and completion after the
// prepare CPU and device wait have elapsed.
func (s *Storage) finish(op *FileOp, elapsed sim.Duration, dispose []charge) {
	s.g.eng.Schedule(elapsed, func() {
		d := s.g.chargeSet(StageDispose, op.sctx(), dispose, &op.CPU)
		op.CompletedAt = s.g.eng.Now().Add(d)
		op.Done = true
	})
}

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
// under the chosen semantics. For application-allocated semantics the
// data lands at va; for the move family va is ignored and the system
// allocates the buffer (reported in op.Region/op.Addr). The call is
// asynchronous on the simulated clock; run the engine to completion.
func (s *Storage) FileRead(p *Process, sem Semantics, block, length int, va vm.Addr) (*FileOp, error) {
	g := s.g
	if !sem.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if err := s.checkOp(block, length); err != nil {
		return nil, err
	}
	op := &FileOp{Sem: sem, Len: length, StartedAt: g.eng.Now()}
	s.stats.Reads++
	bs := s.dev.BlockSize()

	var (
		prep    []charge
		wait    sim.Duration
		dispose []charge
	)

	switch sem {
	case Copy:
		buf, w, err := s.cache.ReadRange(block, 0, length)
		if err != nil {
			return nil, err
		}
		if err := p.as.PokeBuf(va, buf); err != nil {
			return nil, err
		}
		wait = w
		prep = []charge{{cost.Copyout, length}}
		op.Addr = va

	case EmulatedCopy:
		// Page flip: aligned destinations receive whole cache pages by
		// swapping them into the application's address space — the
		// storage twin of input page swapping (Section 5.2). The donated
		// entry leaves the cache, so flipped reads trade hit ratio for
		// copy avoidance. Unaligned destinations fall back to copyout.
		full := 0
		if va%vm.Addr(bs) == 0 {
			full = length / bs
		}
		for i := 0; i < full; i++ {
			f, w, err := s.cache.TakeFrame(block + i)
			if err != nil {
				return nil, err
			}
			wait += w
			old, err := p.as.KernelSwapPage(va+vm.Addr(i*bs), f)
			if err != nil {
				g.sys.Phys().Release(f)
				return nil, err
			}
			if old != nil {
				g.sys.Phys().Release(old)
			}
		}
		op.Flipped = full
		s.stats.PageFlips += uint64(full)
		if full > 0 {
			prep = append(prep, charge{cost.Swap, full * bs})
		}
		if tail := length - full*bs; tail > 0 {
			buf, w, err := s.cache.ReadRange(block+full, 0, tail)
			if err != nil {
				return nil, err
			}
			if err := p.as.PokeBuf(va+vm.Addr(full*bs), buf); err != nil {
				return nil, err
			}
			wait += w
			prep = append(prep, charge{cost.Copyout, tail})
		}
		op.Addr = va

	case Share, EmulatedShare:
		// In-place file input: the device DMAs straight into referenced
		// application pages, bypassing the cache — direct I/O. Share
		// wires the pages (pageout protection); emulated share relies on
		// the reference counts alone.
		ref, err := p.as.ReferenceRange(va, length, true)
		if err != nil {
			return nil, err
		}
		prep = []charge{{cost.Reference, length}}
		if sem == Share {
			g.wireFrames(ref)
			prep = append(prep, charge{cost.Wire, length})
		}
		blocks := s.blockSpan(length)
		// Direct I/O stays coherent with the cache: dirty cached pages
		// of the range reach the media before the device serves it.
		s.cache.WriteBackRange(block, blocks)
		w, err := s.dev.Read(block, blocks, ref)
		if err != nil {
			ref.Unreference()
			return nil, err
		}
		wait = w // the arm serializes: the read's wait covers the writebacks
		s.stats.DirectReads++
		s.stats.DirectBlocks += uint64(blocks)
		op.Addr = va
		wired := sem == Share
		dispose = []charge{{cost.Unreference, length}}
		if wired {
			dispose = []charge{{cost.Unwire, length}, {cost.Unreference, length}}
		}
		prepDur := g.chargeSet(StagePrepare, op.sctx(), prep, &op.CPU)
		op.DeviceWait = wait.Micros()
		s.g.eng.Schedule(prepDur+wait, func() {
			if wired {
				g.unwireFrames(ref)
			}
			ref.Unreference()
			d := g.chargeSet(StageDispose, op.sctx(), dispose, &op.CPU)
			op.CompletedAt = g.eng.Now().Add(d)
			op.Done = true
		})
		return op, nil

	case Move, EmulatedMove, WeakMove, EmulatedWeakMove:
		return s.readSystemAllocated(p, op, sem, block, length)

	default:
		return nil, fmt.Errorf("%w: %v", ErrBadSemantics, sem)
	}

	prepDur := g.chargeSet(StagePrepare, op.sctx(), prep, &op.CPU)
	op.DeviceWait = wait.Micros()
	s.finish(op, prepDur+wait, dispose)
	return op, nil
}

// readSystemAllocated is the move-family read: a fresh moved-in region
// whose pages are donated straight out of the cache — no copy at any
// size, at the price of region bookkeeping and (for the non-emulated
// variants) wiring. This is the mmap-style file operation; FileMap is
// its named alias.
func (s *Storage) readSystemAllocated(p *Process, op *FileOp, sem Semantics, block, length int) (*FileOp, error) {
	g := s.g
	bs := s.dev.BlockSize()
	blocks := s.blockSpan(length)
	r, err := p.as.AllocRegion(blocks*bs, vm.MovingIn)
	if err != nil {
		return nil, err
	}
	prep := []charge{{cost.RegionCreate, 0}}
	frames := make([]*mem.Frame, blocks)
	var wait sim.Duration
	for i := 0; i < blocks; i++ {
		f, w, err := s.cache.TakeFrame(block + i)
		if err != nil {
			return nil, err
		}
		frames[i] = f
		wait += w
	}
	if err := r.AdoptFrames(frames); err != nil {
		return nil, err
	}
	s.stats.Donations += uint64(blocks)
	prep = append(prep, charge{cost.Swap, length}, charge{cost.RegionMarkIn, 0})
	if err := r.MarkMovedIn(); err != nil {
		return nil, err
	}
	if !sem.Emulated() {
		// Transient scaffolding: the non-emulated variants wire the
		// pages against pageout while the fill is in flight, then hand
		// the application a pageable moved-in region.
		if err := p.as.WireRange(r.Start(), blocks*bs); err != nil {
			return nil, err
		}
		prep = append(prep, charge{cost.Wire, length})
		if err := p.as.UnwireRange(r.Start(), blocks*bs); err != nil {
			return nil, err
		}
	}
	op.Region = r
	op.Addr = r.Start()
	prepDur := g.chargeSet(StagePrepare, op.sctx(), prep, &op.CPU)
	op.DeviceWait = wait.Micros()
	var dispose []charge
	if !sem.Emulated() {
		dispose = []charge{{cost.Unwire, length}}
	}
	s.finish(op, prepDur+wait, dispose)
	return op, nil
}

// FileMap is the mmap-style operation: an emulated-move read that hands
// the application a system-allocated region backed by donated cache
// pages.
func (s *Storage) FileMap(p *Process, block, length int) (*FileOp, error) {
	return s.FileRead(p, EmulatedMove, block, length, 0)
}

// FileWrite writes length bytes from the process to the file starting
// at block, under the chosen semantics. For the move family, va must
// be the start of a moved-in region, which the write consumes — the
// storage twin of system-allocated output (Table 2).
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
		prep    []charge
		content mem.Buf
		dispose func() []charge
	)

	switch sem {
	case Copy:
		buf, err := s.peekSource(p, va, length)
		if err != nil {
			return nil, err
		}
		content = buf
		prep = []charge{{cost.Copyin, length}}
		dispose = func() []charge { return nil }

	case EmulatedCopy:
		ref, err := p.as.ReferenceRange(va, length, false)
		if err != nil {
			return nil, err
		}
		p.as.RemoveWrite(va, length) // TCOW protection (Section 5.1)
		content = s.gatherSource(ref, length)
		prep = []charge{{cost.Reference, length}, {cost.ReadOnly, length}}
		dispose = func() []charge {
			ref.Unreference()
			return []charge{{cost.Unreference, length}}
		}

	case Share:
		ref, err := p.as.ReferenceRange(va, length, false)
		if err != nil {
			return nil, err
		}
		g.wireFrames(ref)
		content = s.gatherSource(ref, length)
		prep = []charge{{cost.Reference, length}, {cost.Wire, length}}
		dispose = func() []charge {
			g.unwireFrames(ref)
			ref.Unreference()
			return []charge{{cost.Unwire, length}, {cost.Unreference, length}}
		}

	case EmulatedShare:
		ref, err := p.as.ReferenceRange(va, length, false)
		if err != nil {
			return nil, err
		}
		content = s.gatherSource(ref, length)
		prep = []charge{{cost.Reference, length}}
		dispose = func() []charge {
			ref.Unreference()
			return []charge{{cost.Unreference, length}}
		}

	case Move, EmulatedMove, WeakMove, EmulatedWeakMove:
		r := p.as.FindRegion(va)
		if r == nil {
			return nil, fmt.Errorf("%w: no region at %#x", ErrBadBuffer, va)
		}
		if r.State() == vm.Unmovable {
			return nil, fmt.Errorf("%w: %v", ErrUnmovableOutput, r)
		}
		if r.State() != vm.MovedIn {
			return nil, fmt.Errorf("%w: %v", ErrNotMovedIn, r)
		}
		if va != r.Start() || length > r.Len() {
			return nil, fmt.Errorf("%w: write [%#x,+%d) must start a region no larger than it", ErrBadBuffer, va, length)
		}
		if err := r.MarkMovingOut(); err != nil {
			return nil, err
		}
		ref, err := p.as.ReferenceRegion(r, length, false)
		if err != nil {
			_ = r.AbortMoveOut()
			return nil, err
		}
		prep = []charge{{cost.Reference, length}}
		if !sem.Emulated() {
			g.wireFrames(ref)
			prep = append(prep, charge{cost.Wire, length})
		}
		prep = append(prep, charge{cost.RegionMarkOut, 0})
		if !sem.WeakIntegrity() {
			p.as.Invalidate(r.Start(), r.Len())
			prep = append(prep, charge{cost.Invalidate, length})
		}
		content = s.gatherSource(ref, length)
		dispose = func() []charge {
			var ch []charge
			if !sem.Emulated() {
				g.unwireFrames(ref)
				ch = append(ch, charge{cost.Unwire, length})
			}
			ref.Unreference()
			ch = append(ch, charge{cost.Unreference, length})
			switch sem {
			case Move:
				if err := p.as.RemoveRegion(r); err == nil {
					ch = append(ch, charge{cost.RegionRemove, 0})
				}
			case EmulatedMove:
				if err := r.MarkMovedOut(); err == nil {
					ch = append(ch, charge{cost.RegionMarkOut, 0})
				}
			case WeakMove, EmulatedWeakMove:
				if err := r.MarkWeaklyMovedOut(); err == nil {
					ch = append(ch, charge{cost.RegionMarkOut, 0})
				}
			}
			return ch
		}

	default:
		return nil, fmt.Errorf("%w: %v", ErrBadSemantics, sem)
	}

	wait, err := s.cache.WriteRange(block, 0, content)
	if err != nil {
		return nil, err
	}
	prepDur := g.chargeSet(StagePrepare, op.sctx(), prep, &op.CPU)
	op.DeviceWait = wait.Micros()
	g.eng.Schedule(prepDur+wait, func() {
		d := g.chargeSet(StageDispose, op.sctx(), dispose(), &op.CPU)
		op.CompletedAt = g.eng.Now().Add(d)
		op.Done = true
	})
	return op, nil
}

// writeStage returns s.stage sized to n bytes, growing it if needed.
// On the bytes plane every FileWrite reads its source into this one
// stage, which WriteRange consumes before FileWrite returns, so a
// written byte is copied once into the stage and once into the cache
// page; the symbolic plane gathers runs instead.
func (s *Storage) writeStage(n int) []byte {
	if cap(s.stage) < n {
		s.stage = make([]byte, n)
	}
	return s.stage[:n]
}

// peekSource reads n bytes of the application's buffer at va with full
// fault handling (the copyin source).
func (s *Storage) peekSource(p *Process, va vm.Addr, n int) (mem.Buf, error) {
	if s.g.sys.Phys().Symbolic() {
		return p.as.PeekBuf(va, n)
	}
	stage := s.writeStage(n)
	if err := p.as.Peek(va, stage); err != nil {
		return mem.Buf{}, err
	}
	return mem.BufBytes(stage), nil
}

// gatherSource reads the first n referenced bytes (the in-place write
// source).
func (s *Storage) gatherSource(ref *vm.IORef, n int) mem.Buf {
	if s.g.sys.Phys().Symbolic() {
		return ref.DMAReadBuf(0, n)
	}
	stage := s.writeStage(n)
	ref.DMARead(0, stage)
	return mem.BufBytes(stage)
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
	buf, wait, err := s.cache.ReadRange(block, 0, length)
	if err != nil {
		return nil, err
	}
	prepDur := g.chargeSet(StagePrepare, op.sctx(), []charge{{cost.Reference, length}}, &op.CPU)
	op.DeviceWait = wait.Micros()
	g.eng.Schedule(prepDur+wait, func() {
		err := g.nic.TransmitDatagramBuf(port, buf, func() {
			d := g.chargeSet(StageDispose, op.sctx(), []charge{{cost.Unreference, length}}, &op.CPU)
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
