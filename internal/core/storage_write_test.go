package core

import (
	"bytes"
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
// evictions. Each write reads its source into the storage's reusable
// stage, the cache page takes the second copy and the device copies the
// borrowed page into media it owns, so bytes allocated per written-back
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
