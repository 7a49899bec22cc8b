// Package blockdev simulates a block storage device under the same
// discrete-event clock and DMA abstractions as the network adapters:
// requests are serialized on the device arm, cost a seek when they are
// not sequential with the previous access, and transfer at a per-byte
// rate into or out of data-plane buffers. Content is held as mem.Buf
// values, so on the symbolic plane a payload written to disk and read
// back is the same descriptor run — provenance survives the storage
// path exactly as it survives the wire.
//
// Ownership: a writer hands the device whole pages with Share, which
// keeps them by reference and copies nothing. A shared materialized page
// stays the writer's storage: the writer leaves it unchanged until it
// ends the share with Unshare, which makes the page's storage the
// block's own and returns the block's former storage, so the writer
// takes that in exchange and neither side allocates or copies. Each
// block holds at most one such storage (kept across Reset), and each
// store belongs to one block or one writer's page at a time. Symbolic
// pages are kept by reference and need no Unshare, since runs are
// immutable. Load aliases the caller's content; Share never writes
// through that alias, and Unshare never hands it out. A Load or Reset
// ends a block's share: the page is the writer's alone again, and a
// later Unshare of it returns it unchanged.
//
// ReadBlocks and Peek return borrowed views of the media: a block's
// view stays valid until that block is next shared, loaded or reset,
// so callers consume it at once (load it into a frame, DMA it into a
// target, compare it) or clone it. ReadBlocks returns its views in a
// slice the device reuses: the slice is valid until the next
// ReadBlocks.
//
// The device prices itself with its own Model rather than extending
// cost.Model: the paper's cost model is the fingerprinted contract of
// the network experiments, and disk parameters must not perturb its
// fingerprint (which keys the measurement memo).
package blockdev

import (
	"fmt"
	"math"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Model prices device requests, in microseconds. The defaults are
// mid-1990s disk ballpark figures: ~10 ms average seek+rotation for a
// discontiguous access, fixed per-request controller overhead, and a
// streaming rate of ~10 MB/s.
type Model struct {
	// SeekUS is charged when a request does not start at the block
	// immediately following the previous request's last block.
	SeekUS float64
	// FixedUS is the per-request controller and command overhead.
	FixedUS float64
	// PerByteUS is the media transfer time per byte.
	PerByteUS float64
}

// DefaultModel returns the baseline disk parameters.
func DefaultModel() Model {
	return Model{SeekUS: 10000, FixedUS: 300, PerByteUS: 0.1}
}

// normalized substitutes the defaults for the zero Model; a Model with
// any field set is taken literally (a deliberately free device is a
// legitimate ablation).
func (m Model) normalized() Model {
	if m == (Model{}) {
		return DefaultModel()
	}
	return m
}

// Stats counts device activity since construction or Reset.
type Stats struct {
	Reads         uint64 // read requests
	Writes        uint64 // write requests
	BlocksRead    uint64
	BlocksWritten uint64
	Seeks         uint64  // requests that paid the seek cost
	BusyUS        float64 // total service time accumulated on the arm
}

// Device is one simulated disk: nblocks blocks of blockSize bytes.
// Requests are serialized — a request issued while the device is busy
// waits for the arm — and each returns the wait the issuer observes
// (queueing plus service), so callers fold device time into operation
// latency without callback plumbing. Content transfer happens at issue
// time; the simulation's content layer is time-independent because the
// harnesses issue conflicting accesses in program order.
type Device struct {
	eng       *sim.Engine
	model     Model
	blockSize int
	nblocks   int
	store     []media   // indexed by block
	zero      mem.Buf   // one block of zeros: the content of unwritten blocks
	views     []mem.Buf // ReadBlocks' result, reused by every call
	busyUntil sim.Time
	nextLBA   int // block following the previous request; -1 = unknown (seek)
	stats     Stats
}

// media is one block of the device.
type media struct {
	content mem.Buf // exactly one block; the zero Buf means zeros
	owned   []byte  // the block's own storage, nil until its first Unshare
}

// New builds a device of nblocks blocks of blockSize bytes each. The
// zero model takes the defaults; a model field that is negative, NaN or
// infinite is an error naming it.
func New(eng *sim.Engine, model Model, blockSize, nblocks int) (*Device, error) {
	if blockSize <= 0 || nblocks <= 0 {
		return nil, fmt.Errorf("blockdev: bad geometry %d x %d", nblocks, blockSize)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"SeekUS", model.SeekUS}, {"FixedUS", model.FixedUS}, {"PerByteUS", model.PerByteUS}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("blockdev: model %s = %v, want finite and at least 0", f.name, f.v)
		}
	}
	return &Device{
		eng:       eng,
		model:     model.normalized(),
		blockSize: blockSize,
		nblocks:   nblocks,
		store:     make([]media, nblocks),
		zero:      mem.ZeroBuf(blockSize),
		nextLBA:   -1,
	}, nil
}

// BlockSize returns the device block size in bytes.
func (d *Device) BlockSize() int { return d.blockSize }

// NumBlocks returns the device capacity in blocks.
func (d *Device) NumBlocks() int { return d.nblocks }

// Model returns the device's cost parameters (normalized).
func (d *Device) Model() Model { return d.model }

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// checkRange validates [block, block+count).
func (d *Device) checkRange(block, count int) error {
	if block < 0 || count <= 0 || block+count > d.nblocks {
		return fmt.Errorf("blockdev: range [%d,+%d) outside %d blocks", block, count, d.nblocks)
	}
	return nil
}

// Load installs content for a block with no simulated cost — media
// imaging for experiment setup. The block aliases b (the caller keeps
// it unchanged while the device holds it), and the device never writes
// through b or hands it out. Content shorter than a block is
// zero-padded. Loading a shared block ends its share.
func (d *Device) Load(block int, b mem.Buf) error {
	if err := d.checkRange(block, 1); err != nil {
		return err
	}
	d.store[block].content = d.pad(b)
	return nil
}

// Peek returns a block's content with no simulated cost (tests and
// verification oracles). The view is borrowed: it is valid until the
// block is next shared, loaded or reset. A block outside the device
// reads as zeros.
func (d *Device) Peek(block int) mem.Buf {
	if block >= 0 && block < d.nblocks && d.store[block].content.Len() > 0 {
		return d.store[block].content
	}
	return d.zero
}

// pad extends content to exactly one block.
func (d *Device) pad(b mem.Buf) mem.Buf {
	if b.Len() > d.blockSize {
		b = b.Slice(0, d.blockSize)
	}
	if short := d.blockSize - b.Len(); short > 0 {
		b = b.Append(mem.ZeroBuf(short))
	}
	return b
}

// service accounts one request of count blocks starting at block and
// returns the wait the issuer observes: the time from now until the
// request completes, including queueing behind the busy arm.
func (d *Device) service(block, count int) sim.Duration {
	start := d.busyUntil.Max(d.eng.Now())
	svc := d.model.FixedUS + d.model.PerByteUS*float64(count*d.blockSize)
	if block != d.nextLBA {
		svc += d.model.SeekUS
		d.stats.Seeks++
	}
	d.busyUntil = start.Add(sim.Duration(svc))
	d.nextLBA = block + count
	d.stats.BusyUS += svc
	return d.busyUntil.Sub(d.eng.Now())
}

// ReadBlocks reads count blocks starting at block as one request,
// returning each block's content (element i is block+i, exactly one
// block long) and the wait until the data is available. Both the slice
// and the contents are borrowed: the slice is the device's own, reused
// by the next ReadBlocks, and each content is a view of the media, as
// from Peek, valid until that block is next shared, loaded or reset.
// Callers load the views into frames or targets at once and never write
// through them.
func (d *Device) ReadBlocks(block, count int) ([]mem.Buf, sim.Duration, error) {
	if err := d.checkRange(block, count); err != nil {
		return nil, 0, err
	}
	wait := d.service(block, count)
	d.stats.Reads++
	d.stats.BlocksRead += uint64(count)
	d.views = d.views[:0]
	for i := 0; i < count; i++ {
		d.views = append(d.views, d.Peek(block+i))
	}
	return d.views, wait, nil
}

// Read DMAs count blocks starting at block into target (clipped to the
// target's length), returning the wait until the transfer completes.
// The target is the same DMA abstraction the network adapters write
// through, so in-place file input lands in referenced application
// pages exactly like in-place network input.
func (d *Device) Read(block, count int, target netsim.DMATarget) (sim.Duration, error) {
	blocks, wait, err := d.ReadBlocks(block, count)
	if err != nil {
		return 0, err
	}
	limit := target.Len()
	for i, b := range blocks {
		off := i * d.blockSize
		if off >= limit {
			break
		}
		target.DMAWrite(off, b.Slice(0, min(d.blockSize, limit-off)))
	}
	return wait, nil
}

// Share writes page, exactly one block, to block as one request,
// returning the wait until the transfer completes. The device keeps the
// page by reference and copies nothing: a materialized page is the
// writer's storage, which the writer leaves unchanged until it ends the
// share with Unshare (or a Load or Reset of the block ends it).
// Sub-block writes belong to the page cache's read-modify-write, so a
// page of any other length is an error.
func (d *Device) Share(block int, page mem.Buf) (sim.Duration, error) {
	if err := d.checkRange(block, 1); err != nil {
		return 0, err
	}
	if page.Len() != d.blockSize {
		return 0, fmt.Errorf("blockdev: share of %d bytes into a %d-byte block", page.Len(), d.blockSize)
	}
	wait := d.service(block, 1)
	d.stats.Writes++
	d.stats.BlocksWritten++
	d.store[block].content = page
	return wait, nil
}

// Unshare ends block's share of the materialized page store with no
// simulated cost. The block keeps the bytes by taking store as its own
// storage, and Unshare returns the storage the block held before (nil
// if none), which the writer takes in place of store; so ending a share
// never copies or allocates. When the block does not share store (its
// share already ended, or it never began), Unshare takes nothing and
// returns store.
func (d *Device) Unshare(block int, store []byte) []byte {
	if block < 0 || block >= d.nblocks || len(store) == 0 {
		return store
	}
	m := &d.store[block]
	if m.content.Symbolic() || &m.content.Resolve()[0] != &store[0] {
		return store
	}
	old := m.owned
	m.owned = store
	return old
}

// Reset returns the device to its post-construction state: empty
// media (every block reads as zeros; each block's own storage is kept
// for its next Unshare), idle arm, zeroed counters. It ends every
// share. Harness recycling calls it after the engine clock rewinds so a
// recycled device schedules identically to a fresh one.
func (d *Device) Reset() {
	for i := range d.store {
		d.store[i].content = mem.Buf{}
	}
	d.busyUntil = 0
	d.nextLBA = -1
	d.stats = Stats{}
}
