package pagecache

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

const pageSize = 4096

func newCache(t testing.TB, cfg Config) (*vm.System, *blockdev.Device, *Cache) {
	t.Helper()
	pm := mem.NewWithPlane(256, pageSize, mem.Bytes)
	sys := vm.NewSystem(pm)
	eng := sim.New()
	dev, err := blockdev.New(eng, blockdev.Model{SeekUS: 100, FixedUS: 10, PerByteUS: 0.001}, pageSize, 128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dev, c
}

func image(dev *blockdev.Device, t testing.TB, blocks int) {
	t.Helper()
	for b := 0; b < blocks; b++ {
		p := make([]byte, pageSize)
		for i := range p {
			p[i] = byte(b*37 + i)
		}
		if err := dev.Load(b, mem.BufBytes(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// readRange reads n bytes at off within block's run into a fresh slice.
func readRange(c *Cache, block, off, n int) ([]byte, sim.Duration, error) {
	dst := make([]byte, n)
	wait, err := c.ReadRange(block, off, dst)
	return dst, wait, err
}

func wantBlock(b, off, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(b*37 + off + i)
	}
	return p
}

// A miss fills with read-ahead; subsequent reads of the prefetched
// blocks hit. Conservation: device blocks read == misses + readaheads.
func TestMissReadAheadHit(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 16, ReadAhead: 3})
	image(dev, t, 8)
	got, _, err := readRange(c, 0, 0, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBlock(0, 0, pageSize)) {
		t.Fatal("content mismatch on miss fill")
	}
	ct := c.Counters()
	if ct.Misses != 1 || ct.ReadAheads != 3 || ct.Hits != 0 {
		t.Fatalf("after miss: %+v", ct)
	}
	// Blocks 1..3 were prefetched: all hits, no device traffic.
	before := dev.Stats().BlocksRead
	for b := 1; b <= 3; b++ {
		got, wait, err := readRange(c, b, 0, pageSize)
		if err != nil {
			t.Fatal(err)
		}
		if wait != 0 {
			t.Fatalf("hit on block %d waited %v", b, wait)
		}
		if !bytes.Equal(got, wantBlock(b, 0, pageSize)) {
			t.Fatalf("block %d content mismatch", b)
		}
	}
	if dev.Stats().BlocksRead != before {
		t.Fatal("hits generated device reads")
	}
	ct = c.Counters()
	if ct.Hits != 3 {
		t.Fatalf("hits = %d", ct.Hits)
	}
	if dev.Stats().BlocksRead != ct.Misses+ct.ReadAheads {
		t.Fatalf("conservation: device read %d, misses+readaheads %d",
			dev.Stats().BlocksRead, ct.Misses+ct.ReadAheads)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Read-ahead stops at resident blocks and the device end.
func TestReadAheadClipping(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 16, ReadAhead: 8})
	image(dev, t, 128)
	if _, _, err := readRange(c, 5, 0, 1); err != nil { // resident island at 5
		t.Fatal(err)
	}
	if _, _, err := readRange(c, 2, 0, 1); err != nil { // run 2..4 stops at 5
		t.Fatal(err)
	}
	ct := c.Counters()
	if ct.ReadAheads != 8+2 {
		t.Fatalf("readaheads = %d, want 10", ct.ReadAheads)
	}
	// Device end: a miss at the last block reads exactly one.
	before := dev.Stats().BlocksRead
	if _, _, err := readRange(c, 127, 0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != before+1 {
		t.Fatal("read-ahead ran past device end")
	}
}

// Dirty pages accumulate until the threshold fires one burst that
// flushes everything in ascending block order.
func TestWritebackBurst(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 32, DirtyThreshold: 4})
	for b := 0; b < 3; b++ {
		if _, err := c.WriteRange(b, 0, mem.ZeroBuf(pageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Dirty() != 3 || dev.Stats().Writes != 0 {
		t.Fatalf("below threshold: dirty %d, writes %d", c.Dirty(), dev.Stats().Writes)
	}
	wait, err := c.WriteRange(9, 0, mem.ZeroBuf(pageSize))
	if err != nil {
		t.Fatal(err)
	}
	if wait == 0 {
		t.Fatal("burst waited zero device time")
	}
	ct := c.Counters()
	if c.Dirty() != 0 || ct.Bursts != 1 || ct.Writebacks != 4 {
		t.Fatalf("after burst: dirty %d, %+v", c.Dirty(), ct)
	}
	if dev.Stats().BlocksWritten != 4 {
		t.Fatalf("device wrote %d blocks", dev.Stats().BlocksWritten)
	}
	if c.DirtyHighWater() != 4 {
		t.Fatalf("dirty high-water %d", c.DirtyHighWater())
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Full-page writes allocate without reading; partial writes
// read-modify-write; content round-trips through writeback.
func TestWriteAllocateAndRMW(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 8})
	image(dev, t, 8)
	if _, err := c.WriteRange(0, 0, mem.BufBytes(wantBlock(9, 0, pageSize))); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != 0 {
		t.Fatal("full-page write read the device")
	}
	// Partial write into block 1: RMW fetches it first.
	if _, err := c.WriteRange(1, 100, mem.BufBytes([]byte{0xaa, 0xbb})); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != 1 {
		t.Fatalf("RMW read %d blocks, want 1", dev.Stats().BlocksRead)
	}
	c.Sync()
	if c.Dirty() != 0 {
		t.Fatal("dirty after Sync")
	}
	got := dev.Peek(1).Resolve()
	want := wantBlock(1, 0, pageSize)
	want[100], want[101] = 0xaa, 0xbb
	if !bytes.Equal(got, want) {
		t.Fatal("RMW content mismatch after writeback")
	}
	if !bytes.Equal(dev.Peek(0).Resolve(), wantBlock(9, 0, pageSize)) {
		t.Fatal("full-page write content mismatch after writeback")
	}
}

// LRU eviction: capacity overflow evicts the least recently used page,
// writing it back first when dirty.
func TestEvictionLRU(t *testing.T) {
	_, dev, c := newCache(t, Config{Pages: 4})
	image(dev, t, 16)
	if _, err := c.WriteRange(0, 0, mem.ZeroBuf(pageSize)); err != nil { // dirty block 0
		t.Fatal(err)
	}
	for b := 1; b < 4; b++ {
		if _, _, err := readRange(c, b, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 0 so 1 becomes LRU, then overflow.
	if _, _, err := readRange(c, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRange(c, 10, 0, 1); err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	if ct.Evictions != 1 {
		t.Fatalf("evictions = %d", ct.Evictions)
	}
	if dev.Stats().BlocksWritten != 0 { // block 1 was clean
		t.Fatal("clean eviction wrote the device")
	}
	if c.Resident() != 4 {
		t.Fatalf("resident %d", c.Resident())
	}
	// Now make block 0 LRU and dirty; evicting it must write back.
	for _, b := range []int{2, 3, 10} {
		if _, _, err := readRange(c, b, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := readRange(c, 11, 0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksWritten != 1 {
		t.Fatalf("dirty eviction wrote %d blocks", dev.Stats().BlocksWritten)
	}
	if !bytes.Equal(dev.Peek(0).Resolve(), make([]byte, pageSize)) {
		t.Fatal("evicted dirty content not written back")
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TakeFrame donates the page out of the cache: the frame carries the
// content, the block is no longer resident, and a re-read refetches.
func TestTakeFrameConsumes(t *testing.T) {
	sys, dev, c := newCache(t, Config{Pages: 8})
	image(dev, t, 8)
	f, _, err := c.TakeFrame(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.ReadBuf(0, pageSize).Resolve(), wantBlock(2, 0, pageSize)) {
		t.Fatal("donated frame content mismatch")
	}
	if c.Resident() != 0 {
		t.Fatalf("resident %d after donation", c.Resident())
	}
	ct := c.Counters()
	if ct.Consumed != 1 || ct.Misses != 1 {
		t.Fatalf("counters %+v", ct)
	}
	before := dev.Stats().BlocksRead
	if _, _, err := readRange(c, 2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BlocksRead != before+1 {
		t.Fatal("re-read of donated block did not refetch")
	}
	// A dirty donated page is written back before leaving.
	if _, err := c.WriteRange(3, 0, mem.ZeroBuf(pageSize)); err != nil {
		t.Fatal(err)
	}
	if _, _, err = c.TakeFrame(3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dev.Peek(3).Resolve(), make([]byte, pageSize)) {
		t.Fatal("dirty donation skipped writeback")
	}
	sys.Phys().Release(f)
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TakeFrames takes all or nothing: a fill that fails mid-run returns
// the frames already taken, so residency, free frames and the consumed
// count are as before the call, and a retry takes the whole run.
func TestTakeFramesAllOrNothing(t *testing.T) {
	sys, dev, c := newCache(t, Config{Pages: 8})
	image(dev, t, 8)
	if _, _, err := readRange(c, 0, 0, 2*pageSize); err != nil {
		t.Fatal(err)
	}
	free, resident, consumed := sys.Phys().FreeFrames(), c.Resident(), c.Counters().Consumed
	armed := true
	sys.Phys().SetAllocFault(func() bool { return armed })
	frames := make([]*mem.Frame, 4)
	if _, err := c.TakeFrames(0, frames); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("TakeFrames with failing fill: err %v, want ErrOutOfMemory", err)
	}
	if got := sys.Phys().FreeFrames(); got != free {
		t.Errorf("free frames %d after the failed take, want %d", got, free)
	}
	if c.Resident() != resident || c.Counters().Consumed != consumed {
		t.Errorf("resident %d consumed %d after the failed take, want %d and %d",
			c.Resident(), c.Counters().Consumed, resident, consumed)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readRange(c, 0, 0, 2*pageSize); err != nil {
		t.Fatalf("re-read of returned blocks: %v", err)
	}
	armed = false
	if _, err := c.TakeFrames(0, frames); err != nil {
		t.Fatal(err)
	}
	for b, f := range frames {
		if !bytes.Equal(f.ReadBuf(0, pageSize).Resolve(), wantBlock(b, 0, pageSize)) {
			t.Fatalf("taken frame %d content mismatch", b)
		}
		sys.Phys().Release(f)
	}
	if c.Resident() != 0 {
		t.Fatalf("resident %d after taking every block", c.Resident())
	}
}

// Drop empties the cache and releases every frame; frames are conserved
// across a full exercise.
func TestDropAndFrameConservation(t *testing.T) {
	sys, dev, c := newCache(t, Config{Pages: 8, ReadAhead: 2, DirtyThreshold: 3})
	image(dev, t, 32)
	base := sys.Phys().FreeFrames()
	for b := 0; b < 20; b += 2 {
		if _, _, err := readRange(c, b, 0, pageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteRange(b, 8, mem.BufBytes([]byte{1})); err != nil {
			t.Fatal(err)
		}
	}
	c.Drop()
	if c.Resident() != 0 || c.Dirty() != 0 {
		t.Fatalf("after Drop: resident %d dirty %d", c.Resident(), c.Dirty())
	}
	if sys.Phys().FreeFrames() != base {
		t.Fatalf("frames leaked: %d free, base %d", sys.Phys().FreeFrames(), base)
	}
	if err := c.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	ct := c.Counters()
	if dev.Stats().BlocksRead != ct.Misses+ct.ReadAheads {
		t.Fatalf("conservation: device read %d, misses+readaheads %d",
			dev.Stats().BlocksRead, ct.Misses+ct.ReadAheads)
	}
}

// Reacquire after a system reset leaves the cache frame-for-frame
// identical to a fresh one (lazy allocation: construction allocates
// nothing).
func TestReacquireMatchesFresh(t *testing.T) {
	pm := mem.NewWithPlane(64, pageSize, mem.Bytes)
	sys := vm.NewSystem(pm)
	eng := sim.New()
	dev, err := blockdev.New(eng, blockdev.Model{}, pageSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(sys, dev, Config{Pages: 4})
	if err != nil {
		t.Fatal(err)
	}
	run := func() []mem.FrameID {
		if _, _, err := readRange(c, 0, 0, 3*pageSize); err != nil {
			t.Fatal(err)
		}
		var ids []mem.FrameID
		for b := 0; b < 3; b++ {
			f, _, err := c.TakeFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, f.ID())
			pm.Release(f)
		}
		return ids
	}
	fresh := run()
	pm.Reset()
	sys.Reset()
	eng.Reset()
	dev.Reset()
	c.Reacquire()
	recycled := run()
	for i := range fresh {
		if fresh[i] != recycled[i] {
			t.Fatalf("frame ids diverge at %d: fresh %v recycled %v", i, fresh, recycled)
		}
	}
}

// The storage read path copies each byte once and allocates nothing: a
// bytes-plane ReadRange of resident pages reads straight into the
// caller's slice, and a Device.Read into referenced pages lists the
// block contents in the device's reused view slice.
func TestReadPathAllocs(t *testing.T) {
	sys, dev, c := newCache(t, Config{Pages: 32})
	image(dev, t, 32)
	const pages, blocks = 15, 5
	if _, err := c.EnsureRange(0, pages); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, pages*pageSize)
	readRange := func() {
		if _, err := c.ReadRange(0, 0, dst); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(20, readRange); a != 0 {
		t.Fatalf("%d-page ReadRange of resident blocks into a caller slice: %v allocs, want 0", pages, a)
	}
	for b := 0; b < pages; b++ {
		if !bytes.Equal(dst[b*pageSize:(b+1)*pageSize], wantBlock(b, 0, pageSize)) {
			t.Fatalf("block %d content mismatch after ReadRange", b)
		}
	}

	as := sys.NewAddressSpace()
	r, err := as.AllocRegion(blocks*pageSize, vm.Unmovable)
	if err != nil {
		t.Fatal(err)
	}
	ref := new(vm.IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), blocks*pageSize, true); err != nil {
		t.Fatal(err)
	}
	defer ref.Unreference()
	devRead := func() {
		if _, err := dev.Read(0, blocks, ref); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(20, devRead); a != 0 {
		t.Fatalf("%d-block Device.Read into an IORef: %v allocs, want 0", blocks, a)
	}
	got := make([]byte, blocks*pageSize)
	ref.DMARead(0, got)
	for b := 0; b < blocks; b++ {
		if !bytes.Equal(got[b*pageSize:(b+1)*pageSize], wantBlock(b, 0, pageSize)) {
			t.Fatalf("block %d content mismatch after Device.Read", b)
		}
	}
}

// A warm full cache churns without allocating: entries, frames, page
// slots, device media and the device's view slice are all reused. Each
// case runs once to warm up before it is measured.
func TestCacheChurnAllocs(t *testing.T) {
	const pages = 8
	sys, dev, c := newCache(t, Config{Pages: pages, ReadAhead: 2, DirtyThreshold: 4})
	file := make([][]byte, 32)
	for b := range file {
		file[b] = wantBlock(b, 0, pageSize)
	}
	load := func() {
		for b, p := range file {
			if err := dev.Load(b, mem.BufBytes(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	load()
	if _, err := c.EnsureRange(0, pages); err != nil {
		t.Fatal(err)
	}
	data := mem.BufBytes(bytes.Repeat([]byte{7}, 4*pageSize))
	pos := 0
	write := func() { // evicts 4 pages, inserts 4, fires a burst
		pos = (pos + 4) % 32
		if _, err := c.WriteRange(pos, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	take := func() { // donates a page, then refills it from the device
		f, _, err := c.TakeFrame(pos)
		if err != nil {
			t.Fatal(err)
		}
		sys.Phys().Release(f)
		if _, err := c.EnsureRange(pos, 1); err != nil {
			t.Fatal(err)
		}
		pos = (pos + 1) % 32
	}
	reacquire := func() { // a system reset and a reloaded file, then a full cache again
		sys.Phys().Reset()
		sys.Reset()
		dev.Reset()
		c.Reacquire()
		load()
		if _, err := c.EnsureRange(0, pages); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{{"full-page WriteRange", write}, {"TakeFrame and refill", take}, {"Reacquire and refill", reacquire}} {
		before := c.Counters()
		for range 8 {
			tc.op() // warm: every block of the cycle has been touched
		}
		if a := testing.AllocsPerRun(20, tc.op); a != 0 {
			t.Errorf("%s on a warm full cache: %v allocs, want 0", tc.name, a)
		}
		if c.Resident() != pages {
			t.Fatalf("%s: %d pages resident, want a full cache of %d", tc.name, c.Resident(), pages)
		}
		if err := c.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if tc.name == "full-page WriteRange" {
			ct := c.Counters()
			if ct.Evictions == before.Evictions || ct.Bursts == before.Bursts {
				t.Fatalf("the write case neither evicted nor burst: %+v", ct)
			}
		}
	}
}

// BenchmarkReadRange reads a run of resident bytes-plane pages.
func BenchmarkReadRange(b *testing.B) {
	for _, pages := range []int{1, 4, 15} {
		b.Run(fmt.Sprintf("%dpages", pages), func(b *testing.B) {
			_, dev, c := newCache(b, Config{Pages: 16})
			image(dev, b, pages)
			if _, err := c.EnsureRange(0, pages); err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, pages*pageSize)
			b.ReportAllocs()
			b.SetBytes(int64(pages * pageSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ReadRange(0, 0, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFillReadAhead misses once per iteration on a bytes-plane
// cache of five pages with read-ahead 4, so every miss fills a
// five-block run and evicts the previous one.
func BenchmarkFillReadAhead(b *testing.B) {
	const run = 5
	_, dev, c := newCache(b, Config{Pages: run, ReadAhead: run - 1})
	image(dev, b, 120)
	b.ReportAllocs()
	b.SetBytes(run * pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EnsureRange(i*run%120, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ct := c.Counters(); ct.Misses != uint64(b.N) || ct.ReadAheads != uint64(b.N*(run-1)) {
		b.Fatalf("counters %+v: want one %d-block fill per iteration", ct, run)
	}
}

// BenchmarkDeviceRead DMAs five blocks into referenced bytes-plane
// pages.
func BenchmarkDeviceRead(b *testing.B) {
	const blocks = 5
	sys, dev, _ := newCache(b, Config{Pages: 1})
	image(dev, b, blocks)
	as := sys.NewAddressSpace()
	r, err := as.AllocRegion(blocks*pageSize, vm.Unmovable)
	if err != nil {
		b.Fatal(err)
	}
	ref := new(vm.IORef)
	if err := as.ReferenceRangeInto(ref, r.Start(), blocks*pageSize, true); err != nil {
		b.Fatal(err)
	}
	defer ref.Unreference()
	b.ReportAllocs()
	b.SetBytes(blocks * pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Read(0, blocks, ref); err != nil {
			b.Fatal(err)
		}
	}
}
