package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/vm"
)

// storageBed builds a testbed with a storage stack on host A.
func storageBed(t *testing.T, disk DiskConfig) (*Testbed, *Storage) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStorage(tb.A, disk)
	if err != nil {
		t.Fatal(err)
	}
	return tb, s
}

// filePattern is the deterministic media image used across the tests.
func filePattern(b, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(b*37 + i*7 + 3)
	}
	return p
}

func loadFile(t *testing.T, s *Storage, blocks int) {
	t.Helper()
	bs := s.Device().BlockSize()
	for b := 0; b < blocks; b++ {
		if err := s.Device().Load(b, mem.BufBytes(filePattern(b, bs))); err != nil {
			t.Fatal(err)
		}
	}
}

func readBack(t *testing.T, p *Process, va vm.Addr, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if err := p.Read(va, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// Every application-allocated read semantics delivers the same bytes;
// the move family delivers them in a system-chosen region.
func TestFileReadAllSemantics(t *testing.T) {
	bs := 0
	for _, sem := range AllSemantics() {
		tb, s := storageBed(t, DiskConfig{CachePages: 32})
		bs = s.Device().BlockSize()
		loadFile(t, s, 8)
		p := tb.A.Genie.NewProcess()
		n := 2*bs + 100
		want := append(filePattern(0, bs), filePattern(1, bs)...)
		want = append(want, filePattern(2, 100)...)

		var va vm.Addr
		if !sem.SystemAllocated() {
			var err error
			va, err = p.Brk(n)
			if err != nil {
				t.Fatal(err)
			}
		}
		op, err := s.FileRead(p, sem, 0, n, va)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			t.Fatalf("%v: op not done (err %v)", sem, op.Err)
		}
		if op.CPU <= 0 {
			t.Fatalf("%v: no CPU charged", sem)
		}
		if op.CompletedAt <= op.StartedAt {
			t.Fatalf("%v: zero latency", sem)
		}
		got := readBack(t, p, op.Addr, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: content mismatch", sem)
		}
		if sem.SystemAllocated() {
			if op.Region == nil || op.Region.State() != vm.MovedIn {
				t.Fatalf("%v: no moved-in region", sem)
			}
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
	}
	if bs == 0 {
		t.Fatal("no semantics ran")
	}
}

// The emulated-copy page flip donates aligned pages out of the cache
// (consuming the entries), copies only the tail, and a re-read of the
// flipped blocks misses.
func TestEmulatedCopyPageFlip(t *testing.T) {
	tb, s := storageBed(t, DiskConfig{CachePages: 32})
	bs := s.Device().BlockSize()
	loadFile(t, s, 8)
	p := tb.A.Genie.NewProcess()
	n := 3*bs + 64
	va, err := p.Brk(n)
	if err != nil {
		t.Fatal(err)
	}
	op, err := s.FileRead(p, EmulatedCopy, 0, n, va)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if op.Flipped != 3 {
		t.Fatalf("flipped %d pages, want 3", op.Flipped)
	}
	ct := s.Cache().Counters()
	if ct.Consumed != 3 {
		t.Fatalf("cache consumed %d, want 3", ct.Consumed)
	}
	if got := readBack(t, p, va, bs); !bytes.Equal(got, filePattern(0, bs)) {
		t.Fatal("flipped page content mismatch")
	}
	// The donated blocks are gone; re-reading them misses again.
	missesBefore := ct.Misses
	op2, err := s.FileRead(p, Copy, 0, bs, va)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if op2.DeviceWait == 0 {
		t.Fatal("re-read of flipped block did not touch the device")
	}
	if got := s.Cache().Counters().Misses; got != missesBefore+1 {
		t.Fatalf("misses %d, want %d", got, missesBefore+1)
	}
	// An unaligned destination cannot flip: falls back to pure copyout.
	op3, err := s.FileRead(p, EmulatedCopy, 4, bs, va+64)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if op3.Flipped != 0 {
		t.Fatalf("unaligned read flipped %d pages", op3.Flipped)
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Share-family reads bypass the cache: direct DMA into referenced
// application pages, no cache residency.
func TestShareReadBypassesCache(t *testing.T) {
	tb, s := storageBed(t, DiskConfig{CachePages: 32})
	bs := s.Device().BlockSize()
	loadFile(t, s, 4)
	p := tb.A.Genie.NewProcess()
	va, err := p.Brk(2 * bs)
	if err != nil {
		t.Fatal(err)
	}
	op, err := s.FileRead(p, Share, 0, 2*bs, va)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if !op.Done {
		t.Fatal("share read never completed")
	}
	if s.Cache().Resident() != 0 {
		t.Fatalf("share read left %d cache pages", s.Cache().Resident())
	}
	st := s.Stats()
	if st.DirectReads != 1 || st.DirectBlocks != 2 {
		t.Fatalf("direct stats %+v", st)
	}
	if got := readBack(t, p, va, bs); !bytes.Equal(got, filePattern(0, bs)) {
		t.Fatal("direct read content mismatch")
	}
	// References drained at completion: frames unwired, unreferenced.
	if err := tb.A.Phys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// Share-family reads stay coherent with the cache, as O_DIRECT does:
// the range's dirty cached pages are written back before the device
// DMA, counted as writebacks, and their device time is part of the
// read's wait.
func TestFileReadDirectSeesDirtyCache(t *testing.T) {
	for _, sem := range []Semantics{Share, EmulatedShare} {
		tb, s := storageBed(t, DiskConfig{CachePages: 32})
		bs := s.Device().BlockSize()
		loadFile(t, s, 4)
		p := tb.A.Genie.NewProcess()
		src, err := p.Brk(bs)
		if err != nil {
			t.Fatal(err)
		}
		dirty := bytes.Repeat([]byte{0xAB}, bs)
		if err := p.Write(src, dirty); err != nil {
			t.Fatal(err)
		}
		if _, err := s.FileWrite(p, Copy, 0, bs, src); err != nil {
			t.Fatal(err)
		}
		tb.Run()
		if s.Cache().Dirty() != 1 || s.Device().Stats().Writes != 0 {
			t.Fatalf("%v: write did not stay in the cache", sem)
		}
		dst, err := p.Brk(2 * bs)
		if err != nil {
			t.Fatal(err)
		}
		op, err := s.FileRead(p, sem, 0, 2*bs, dst)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			t.Fatalf("%v: op not done (err %v)", sem, op.Err)
		}
		want := append(append([]byte(nil), dirty...), filePattern(1, bs)...)
		if got := readBack(t, p, dst, 2*bs); !bytes.Equal(got, want) {
			t.Fatalf("%v: direct read returned media older than the cache's write", sem)
		}
		if ct := s.Cache().Counters(); ct.Writebacks != 1 || s.Cache().Dirty() != 0 {
			t.Fatalf("%v: writebacks %d, dirty %d; want 1, 0", sem, ct.Writebacks, s.Cache().Dirty())
		}
		// Both requests pay a seek on the arm: the write-back starts
		// cold, and the read returns to the block it just wrote.
		m := s.Device().Model()
		wantWait := 2*(m.SeekUS+m.FixedUS) + m.PerByteUS*float64(3*bs)
		if math.Abs(op.DeviceWait-wantWait) > 1e-6 {
			t.Fatalf("%v: device wait %v us, want %v (write-back + read)", sem, op.DeviceWait, wantWait)
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
	}
}

// Every write semantics lands the same bytes in the file; move-family
// writes consume the region.
func TestFileWriteAllSemantics(t *testing.T) {
	for _, sem := range AllSemantics() {
		tb, s := storageBed(t, DiskConfig{CachePages: 32})
		bs := s.Device().BlockSize()
		p := tb.A.Genie.NewProcess()
		n := bs + 200
		data := filePattern(9, n)

		var va vm.Addr
		var region *vm.Region
		if sem.SystemAllocated() {
			r, err := p.AllocIOBuffer(n)
			if err != nil {
				t.Fatal(err)
			}
			region = r
			va = r.Start()
		} else {
			var err error
			va, err = p.Brk(n)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Write(va, data); err != nil {
			t.Fatal(err)
		}
		op, err := s.FileWrite(p, sem, 0, n, va)
		if err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			t.Fatalf("%v: not done (err %v)", sem, op.Err)
		}
		s.Sync()
		got := append(s.Device().Peek(0).Resolve(), s.Device().Peek(1).Resolve()[:200]...)
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: file content mismatch", sem)
		}
		if sem.SystemAllocated() {
			switch sem {
			case Move:
				if !region.Removed() {
					t.Fatalf("%v: region not removed", sem)
				}
			default:
				if region.State() == vm.MovedIn {
					t.Fatalf("%v: region still moved in", sem)
				}
			}
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if err := tb.A.Phys.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
	}
}

// The dirty threshold turns sustained copy writes into writeback
// bursts.
func TestWriteThresholdBursts(t *testing.T) {
	tb, s := storageBed(t, DiskConfig{CachePages: 32, DirtyThreshold: 4})
	bs := s.Device().BlockSize()
	p := tb.A.Genie.NewProcess()
	va, err := p.Brk(bs)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if _, err := s.FileWrite(p, Copy, b, bs, va); err != nil {
			t.Fatal(err)
		}
		tb.Run()
	}
	ct := s.Cache().Counters()
	if ct.Bursts != 2 || ct.Writebacks != 8 {
		t.Fatalf("bursts %d writebacks %d, want 2/8", ct.Bursts, ct.Writebacks)
	}
	if s.Cache().Dirty() != 0 {
		t.Fatalf("dirty %d after bursts", s.Cache().Dirty())
	}
}

// Sendfile: the disk-to-net pipeline delivers file content to a
// receiver posting input under each semantics.
func TestSendfilePipeline(t *testing.T) {
	for _, sem := range AllSemantics() {
		tb, s := storageBed(t, DiskConfig{CachePages: 32})
		bs := s.Device().BlockSize()
		loadFile(t, s, 4)
		pB := tb.B.Genie.NewProcess()
		n := 2 * bs
		var vaB vm.Addr
		if !sem.SystemAllocated() {
			var err error
			vaB, err = pB.Brk(n)
			if err != nil {
				t.Fatal(err)
			}
		}
		in, err := pB.Input(7, sem, vaB, n)
		if err != nil {
			t.Fatalf("%v: input: %v", sem, err)
		}
		op, err := s.Sendfile(7, 0, n)
		if err != nil {
			t.Fatalf("%v: sendfile: %v", sem, err)
		}
		tb.Run()
		if !op.Done || op.Err != nil || !in.Done || in.Err != nil {
			t.Fatalf("%v: pipeline incomplete (out %v, in %v)", sem, op.Err, in.Err)
		}
		want := append(filePattern(0, bs), filePattern(1, bs)...)
		if got := readBack(t, pB, in.Addr, n); !bytes.Equal(got, want) {
			t.Fatalf("%v: delivered content mismatch", sem)
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
	}
}

// The copy-vs-move crossover on the read path, mirroring Table 7's
// structure: copy is cheaper for short reads (fixed region bookkeeping
// dominates), move is cheaper for long reads (per-byte copyout
// dominates), and the crossover between them is finite.
func TestReadCopyMoveCrossover(t *testing.T) {
	readCPU := func(sem Semantics, n int) float64 {
		tb, s := storageBed(t, DiskConfig{CachePages: 64, DiskBlocks: 64})
		loadFile(t, s, 16)
		p := tb.A.Genie.NewProcess()
		var va vm.Addr
		if !sem.SystemAllocated() {
			var err error
			va, err = p.Brk(n)
			if err != nil {
				t.Fatal(err)
			}
		}
		op, err := s.FileRead(p, sem, 0, n, va)
		if err != nil {
			t.Fatal(err)
		}
		tb.Run()
		if !op.Done {
			t.Fatalf("%v read of %d never completed", sem, n)
		}
		return op.CPU
	}

	const lo, hi = 512, 61440
	if c, m := readCPU(Copy, lo), readCPU(EmulatedMove, lo); c >= m {
		t.Fatalf("at %d bytes copy (%v us) should beat move (%v us)", lo, c, m)
	}
	if c, m := readCPU(Copy, hi), readCPU(EmulatedMove, hi); m >= c {
		t.Fatalf("at %d bytes move (%v us) should beat copy (%v us)", hi, m, c)
	}
	crossover := 0
	for n := lo; n <= hi; n += 1024 {
		if readCPU(EmulatedMove, n) < readCPU(Copy, n) {
			crossover = n
			break
		}
	}
	if crossover == 0 {
		t.Fatal("no finite copy-vs-move crossover located")
	}
	if crossover <= lo || crossover >= hi {
		t.Fatalf("crossover %d outside (%d, %d)", crossover, lo, hi)
	}
	t.Logf("read-path copy-vs-move crossover at %d bytes", crossover)
}

// A recycled storage testbed replays a fresh one bit for bit.
func TestStorageResetDeterminism(t *testing.T) {
	run := func(tb *Testbed, s *Storage) (float64, float64) {
		loadFile(t, s, 8)
		p := tb.A.Genie.NewProcess()
		bs := s.Device().BlockSize()
		va, err := p.Brk(2 * bs)
		if err != nil {
			t.Fatal(err)
		}
		op, err := s.FileRead(p, Copy, 0, 2*bs, va)
		if err != nil {
			t.Fatal(err)
		}
		tb.Run()
		wop, err := s.FileWrite(p, EmulatedCopy, 4, 2*bs, va)
		if err != nil {
			t.Fatal(err)
		}
		tb.Run()
		s.Sync()
		return op.CPU + wop.CPU, float64(wop.CompletedAt)
	}
	tb, s := storageBed(t, DiskConfig{CachePages: 16, ReadAhead: 2})
	cpu1, t1 := run(tb, s)
	if err := tb.Reset(); err != nil {
		t.Fatal(err)
	}
	s.Reacquire()
	cpu2, t2 := run(tb, s)
	if cpu1 != cpu2 || t1 != t2 {
		t.Fatalf("recycled run diverged: cpu %v vs %v, t %v vs %v", cpu1, cpu2, t1, t2)
	}
}
