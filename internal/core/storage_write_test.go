package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagecache"
	"repro/internal/vm"
)

// writeScriptDisk is the storage stack of the write scripts: a cache
// smaller than the largest write, and read-ahead so a partial-page write
// fills clean pages around its dirty one; the clean pages keep the
// dirty count below the threshold long enough for dirty pages to reach
// the LRU tail, so threshold bursts and dirty evictions both fire.
var writeScriptDisk = DiskConfig{DiskBlocks: 64, CachePages: 8, ReadAhead: 4, DirtyThreshold: 8}

// writeSizes spans a sub-page, one page, four pages and a write larger
// than the cache.
var writeSizes = []int{512, 4096, 16384, 61440}

// writeTiming is one FileWrite's observable cost.
type writeTiming struct {
	lat, cpu, wait float64
}

// scriptWrite fills the source for write i of a script: an
// application-allocated buffer at va, or a fresh moved-in region for the
// move family (which the write consumes). It returns the source address
// and the bytes written there.
func scriptWrite(t *testing.T, p *Process, sem Semantics, i, n int, va vm.Addr) (vm.Addr, []byte) {
	t.Helper()
	data := make([]byte, n)
	for j := range data {
		data[j] = byte(i*29 + j*13 + j/4096)
	}
	if sem.SystemAllocated() {
		r, err := p.AllocIOBuffer(n)
		if err != nil {
			t.Fatal(err)
		}
		va = r.Start()
	}
	if err := p.Write(va, data); err != nil {
		t.Fatal(err)
	}
	return va, data
}

// writebackCauses classifies the writebacks between two counter
// snapshots taken around one write: a threshold burst, or (no burst
// fired) dirty pages the write's own evictions wrote back.
func writebackCauses(before, after pagecache.Counters) (burst, dirtyEvict int) {
	switch {
	case after.Bursts > before.Bursts:
		return 1, 0
	case after.Writebacks > before.Writebacks:
		return 0, 1
	}
	return 0, 0
}

// runWriteScript runs the cross-plane write script on plane: 32
// FileWrites, every semantics at every size, at scattered block
// offsets, then Sync. After Sync every media block must equal a shadow
// image of the file. It returns each write's timing, and how many
// writes caused threshold bursts and dirty evictions.
func runWriteScript(t *testing.T, plane mem.DataPlane) (ops []writeTiming, burstOps, dirtyEvictOps int) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{Plane: plane})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStorage(tb.A, writeScriptDisk)
	if err != nil {
		t.Fatal(err)
	}
	bs := s.Device().BlockSize()
	nblocks := s.Device().NumBlocks()
	loadFile(t, s, nblocks)
	shadow := make([]byte, 0, nblocks*bs)
	for b := 0; b < nblocks; b++ {
		shadow = append(shadow, filePattern(b, bs)...)
	}
	p := tb.A.Genie.NewProcess()
	buf, err := p.Brk(writeSizes[len(writeSizes)-1])
	if err != nil {
		t.Fatal(err)
	}
	sems := AllSemantics()
	for i := 0; i < len(sems)*len(writeSizes); i++ {
		sem, n := sems[i%len(sems)], writeSizes[(i+i/len(sems))%len(writeSizes)]
		span := (n + bs - 1) / bs
		block := (i*5 + 3) % (nblocks - span + 1)
		va, data := scriptWrite(t, p, sem, i, n, buf)
		before := s.Cache().Counters()
		op, err := s.FileWrite(p, sem, block, n, va)
		if err != nil {
			t.Fatalf("%s plane: write %d (%v, %d bytes at block %d): %v", plane.Name(), i, sem, n, block, err)
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			t.Fatalf("%s plane: write %d not done (err %v)", plane.Name(), i, op.Err)
		}
		copy(shadow[block*bs:], data)
		ops = append(ops, writeTiming{op.CompletedAt.Sub(op.StartedAt).Micros(), op.CPU, op.DeviceWait})
		b, e := writebackCauses(before, s.Cache().Counters())
		burstOps += b
		dirtyEvictOps += e
	}
	s.Sync()
	if d := s.Cache().Dirty(); d != 0 {
		t.Fatalf("%s plane: %d dirty pages after Sync", plane.Name(), d)
	}
	for b := 0; b < nblocks; b++ {
		got := s.Device().Peek(b).Resolve()
		want := shadow[b*bs : (b+1)*bs]
		if !bytes.Equal(got, want) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			t.Fatalf("%s plane: media block %d differs from the shadow image at byte %d (%#x, want %#x)",
				plane.Name(), b, i, got[i], want[i])
		}
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatalf("%s plane: %v", plane.Name(), err)
	}
	return ops, burstOps, dirtyEvictOps
}

// TestFileWriteCrossPlane runs one scripted FileWrite sequence — all
// eight semantics at 512, 4096, 16384 and 61440 bytes, with threshold
// bursts, dirty eviction and a final Sync — on the bytes and symbolic
// planes. On each plane the media must equal a shadow image of the file
// after Sync, and every write's latency, CPU and device wait must be
// bit-identical across the planes.
func TestFileWriteCrossPlane(t *testing.T) {
	bytesOps, bursts, evicts := runWriteScript(t, mem.Bytes)
	symOps, _, _ := runWriteScript(t, mem.Symbolic)
	if bursts == 0 || evicts == 0 {
		t.Fatalf("script caused %d threshold bursts and %d dirty evictions, want both", bursts, evicts)
	}
	for i := range bytesOps {
		b, s := bytesOps[i], symOps[i]
		if math.Float64bits(b.lat) != math.Float64bits(s.lat) ||
			math.Float64bits(b.cpu) != math.Float64bits(s.cpu) ||
			math.Float64bits(b.wait) != math.Float64bits(s.wait) {
			t.Fatalf("write %d: bytes plane %+v, symbolic plane %+v", i, b, s)
		}
	}
}

// TestFileWriteAllocs pins the write path's copy-once contract. A warmed
// bytes-plane rig (the write-script stack) runs rounds of copy and share
// writes of 512, 16384 and 61440 bytes, enough for threshold bursts and dirty
// evictions. Each write reads its source straight into the cache pages,
// writeback shares each page with the device, and ending a share trades
// the page's storage for the block's, so bytes allocated per written-back
// page stay far below one page: a fresh source snapshot per write and a
// fresh page snapshot per writeback would each cost at least a page.
func TestFileWriteAllocs(t *testing.T) {
	const rounds = 40
	tb, err := NewTestbed(TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStorage(tb.A, writeScriptDisk)
	if err != nil {
		t.Fatal(err)
	}
	bs, nblocks := s.Device().BlockSize(), s.Device().NumBlocks()
	p := tb.A.Genie.NewProcess()
	va, err := p.Brk(61440)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(va, bytes.Repeat([]byte{7}, 61440)); err != nil {
		t.Fatal(err)
	}
	var block, bursts, dirtyEvicts int
	round := func() {
		for _, sem := range []Semantics{Copy, Share} {
			for _, n := range []int{512, 16384, 61440} {
				before := s.Cache().Counters()
				if _, err := s.FileWrite(p, sem, block, n, va); err != nil {
					t.Fatal(err)
				}
				tb.Run()
				b, e := writebackCauses(before, s.Cache().Counters())
				bursts += b
				dirtyEvicts += e
				block = (block + 17) % (nblocks - 15)
			}
		}
	}
	for i := 0; i < nblocks; i++ { // warm the media, stage, frames and engine
		round()
	}
	bursts, dirtyEvicts = 0, 0
	before := s.Cache().Counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	written := s.Cache().Counters().Writebacks - before.Writebacks
	if bursts == 0 || dirtyEvicts == 0 {
		t.Fatalf("measured rounds: %d writes caused bursts, %d dirty evictions; want both", bursts, dirtyEvicts)
	}
	perPage := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(written)
	t.Logf("%.0f bytes allocated per written-back %d-byte page (%d pages, %d bursts, %d dirty-evicting writes)",
		perPage, bs, written, bursts, dirtyEvicts)
	if limit := float64(bs) / 8; perPage > limit {
		t.Errorf("%.0f bytes allocated per written-back page, want at most %.0f", perPage, limit)
	}
}

// TestFileWriteReleasesOnCacheError fails the cache page allocation of
// an in-place write. FileWrite must return the error and release its
// source: the application frames hold no I/O references or wires
// afterwards, a move-family region is moved in again with its data
// readable, the memory and cache audits pass, and a write of the same
// buffer after the fault is disarmed succeeds.
func TestFileWriteReleasesOnCacheError(t *testing.T) {
	for _, sem := range []Semantics{Share, EmulatedShare, EmulatedCopy, Move, EmulatedMove, WeakMove, EmulatedWeakMove} {
		tb, s := storageBed(t, DiskConfig{CachePages: 32})
		p := tb.A.Genie.NewProcess()
		n := 2*s.Device().BlockSize() + 100
		buffer := func() vm.Addr {
			t.Helper()
			var va vm.Addr
			if sem.SystemAllocated() {
				r, err := p.AllocIOBuffer(n)
				if err != nil {
					t.Fatal(err)
				}
				va = r.Start()
			} else {
				var err error
				if va, err = p.Brk(n); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Write(va, filePattern(3, n)); err != nil {
				t.Fatal(err)
			}
			return va
		}
		va := buffer()
		var frames []*mem.Frame
		for off := 0; off < n; off += tb.A.Phys.PageSize() {
			pte, ok := p.Space().PTEAt(va + vm.Addr(off))
			if !ok {
				t.Fatalf("%v: page at +%d not resident", sem, off)
			}
			frames = append(frames, pte.Frame)
		}

		armed := true
		tb.A.Phys.SetAllocFault(func() bool { return armed })
		if _, err := s.FileWrite(p, sem, 0, n, va); !errors.Is(err, mem.ErrOutOfMemory) {
			t.Fatalf("%v: FileWrite with failing cache allocation: err %v, want ErrOutOfMemory", sem, err)
		}
		armed = false
		tb.Run()
		for _, f := range frames {
			if f.Referenced() || f.WireCount() != 0 {
				t.Fatalf("%v: source frame still held after the failed write: %v", sem, f)
			}
		}
		if err := tb.A.Phys.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if sem.SystemAllocated() {
			if r := p.Space().FindRegion(va); r == nil || r.State() != vm.MovedIn {
				t.Fatalf("%v: region after the failed write: %v, want moved in", sem, r)
			}
		}
		got := make([]byte, n)
		if err := p.Read(va, got); err != nil || !bytes.Equal(got, filePattern(3, n)) {
			t.Fatalf("%v: buffer unreadable or changed after the failed write (err %v)", sem, err)
		}

		op, err := s.FileWrite(p, sem, 0, n, va)
		if err != nil {
			t.Fatalf("%v: write after disarming: %v", sem, err)
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			t.Fatalf("%v: write after disarming not done (err %v)", sem, op.Err)
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
	}
}

// A bytes-plane FileWrite whose source runs into an unmapped page fails
// with the fault and leaves everything below it as it was: for a copy,
// whose source is faulted in whole before the cache changes, and for
// emulated copy, whose source is referenced first. The write's target
// range holds dirty, clean and device-shared pages when it fails; the
// residency, dirty count, cache and device counters, every media block
// and the source buffer must be unchanged.
func TestFileWriteSourceFaultChangesNothing(t *testing.T) {
	const blocks = 16
	for _, sem := range []Semantics{Copy, EmulatedCopy} {
		tb, s := storageBed(t, DiskConfig{DiskBlocks: blocks, CachePages: 8})
		bs := s.Device().BlockSize()
		loadFile(t, s, blocks)
		p := tb.A.Genie.NewProcess()
		va, err := p.Brk(2 * bs)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Read(va+vm.Addr(2*bs), make([]byte, 1)); err == nil {
			t.Fatalf("%v: the page after the buffer is mapped", sem)
		}
		src := filePattern(40, 2*bs)
		if err := p.Write(va, src); err != nil {
			t.Fatal(err)
		}
		write := func(block, n int) {
			t.Helper()
			op, err := s.FileWrite(p, Copy, block, n, va)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if !op.Done || op.Err != nil {
				t.Fatalf("%v: priming write not done (err %v)", sem, op.Err)
			}
		}
		write(0, 2*bs) // blocks 0 and 1, shared with the device after Sync
		s.Sync()
		write(1, 100) // block 1 dirty again
		// Blocks 2 and 3 resident and clean.
		if _, err := s.Cache().EnsureRange(2, 2); err != nil {
			t.Fatal(err)
		}

		resident, dirty := s.Cache().Resident(), s.Cache().Dirty()
		counters, dev := s.Cache().Counters(), s.Device().Stats()
		var media [][]byte
		for b := range blocks {
			media = append(media, bytes.Clone(s.Device().Peek(b).Resolve()))
		}
		if _, err := s.FileWrite(p, sem, 0, 3*bs, va); !errors.Is(err, vm.ErrFault) {
			t.Fatalf("%v: FileWrite over an unmapped source page: err %v, want vm.ErrFault", sem, err)
		}
		tb.Run()
		if r, d := s.Cache().Resident(), s.Cache().Dirty(); r != resident || d != dirty {
			t.Errorf("%v: after the failed write %d resident, %d dirty; before %d and %d", sem, r, d, resident, dirty)
		}
		if c := s.Cache().Counters(); c != counters {
			t.Errorf("%v: cache counters %+v after the failed write, %+v before", sem, c, counters)
		}
		if d := s.Device().Stats(); d != dev {
			t.Errorf("%v: device stats %+v after the failed write, %+v before", sem, d, dev)
		}
		for b := range blocks {
			if !bytes.Equal(s.Device().Peek(b).Resolve(), media[b]) {
				t.Errorf("%v: media block %d changed by the failed write", sem, b)
			}
		}
		got := make([]byte, 2*bs)
		if err := p.Read(va, got); err != nil || !bytes.Equal(got, src) {
			t.Errorf("%v: source buffer unreadable or changed by the failed write (err %v)", sem, err)
		}
		if err := s.CheckConservation(); err != nil {
			t.Errorf("%v: %v", sem, err)
		}
	}
}
