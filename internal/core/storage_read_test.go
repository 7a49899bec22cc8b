package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/vm"
)

// TestFileReadAllocs pins the read side's reusable buffers. A warmed
// bytes-plane rig with the file resident in the cache runs rounds of
// copy reads, unaligned emulated-copy reads (copyout, no page flip) and
// Sendfile to a copy-semantics input on host B. A copy read stages the
// cache bytes in the storage's one stage, the receiver's copyout
// gathers into its Genie's stage, and the sendfile cache read is a wire
// buffer that host B's adapter hands back to the pool, so each op
// allocates well below one page: a fresh read result, snapshot or
// gather would each cost the whole transfer. The race detector's
// sync.Pool drops a quarter of the buffers put back, which costs a
// sendfile about a quarter of its pool class (an eighth of a page).
func TestFileReadAllocs(t *testing.T) {
	const (
		rounds = 100
		size   = 16384 // read size
		sfSize = 2048  // sendfile size: one wire-pool class, half a page
		port   = 9
	)
	tb, s := storageBed(t, DiskConfig{DiskBlocks: 64, CachePages: 64})
	loadFile(t, s, 64)
	bs := s.Device().BlockSize()
	pA, pB := tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess()
	vaA, err := pA.Brk(size + bs)
	if err != nil {
		t.Fatal(err)
	}
	vaB, err := pB.Brk(sfSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cache().EnsureRange(0, 64); err != nil {
		t.Fatal(err)
	}
	want := func(block, n int) []byte {
		var img []byte
		for b := block; len(img) < n; b++ {
			img = append(img, filePattern(b, bs)...)
		}
		return img[:n]
	}
	type readOp struct {
		name string
		n    int
		run  func(block int)
		p    *Process
		va   vm.Addr // where the op's bytes land
	}
	fileRead := func(sem Semantics, va vm.Addr) func(int) {
		return func(block int) {
			op, err := s.FileRead(pA, sem, block, size, va)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if !op.Done || op.Err != nil || op.Flipped != 0 {
				t.Fatalf("%v read of block %d: done %v, err %v, %d pages flipped", sem, block, op.Done, op.Err, op.Flipped)
			}
		}
	}
	ops := []readOp{
		{"copy read", size, fileRead(Copy, vaA), pA, vaA},
		{"unaligned emulated-copy read", size, fileRead(EmulatedCopy, vaA+100), pA, vaA + 100},
		{"sendfile", sfSize, func(block int) {
			in, err := pB.Input(port, Copy, vaB, sfSize)
			if err != nil {
				t.Fatal(err)
			}
			op, err := s.Sendfile(port, block, sfSize)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if !op.Done || op.Err != nil || !in.Done || in.Err != nil || in.N != sfSize {
				t.Fatalf("sendfile of block %d: done %v/%v, err %v/%v, %d bytes", block, op.Done, in.Done, op.Err, in.Err, in.N)
			}
		}, pB, vaB},
	}
	for _, op := range ops {
		var block, last int
		round := func() {
			op.run(block)
			last, block = block, (block+5)%(64-size/bs)
		}
		for i := 0; i < 10; i++ { // warm the stages, pools, engine arena and frames
			round()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&m1)
		perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / rounds
		t.Logf("%s of %d bytes: %.0f bytes allocated per op", op.name, op.n, perOp)
		if limit := float64(bs) / 2; perOp > limit {
			t.Errorf("%s: %.0f bytes allocated per op, want at most %.0f", op.name, perOp, limit)
		}
		// The staged and pooled bytes reached their destination intact.
		if got := readBack(t, op.p, op.va, op.n); !bytes.Equal(got, want(last, op.n)) {
			t.Errorf("%s of block %d delivered wrong bytes", op.name, last)
		}
	}
}

// TestFileReadReleasesOnCacheError fails the cache fill of the second
// block of a four-block read, with the first block resident. FileRead
// must return the error and roll back what it took: the free-frame
// count and cache residency return to their pre-op values, no moving-in
// region is left behind, no frame holds an I/O reference or a wire, the
// memory and cache audits pass, and a read after the fault is disarmed
// delivers the file. The share family reads around the cache, so its
// read succeeds and must leave the same state.
func TestFileReadReleasesOnCacheError(t *testing.T) {
	for _, sem := range AllSemantics() {
		tb, s := storageBed(t, DiskConfig{CachePages: 32})
		bs := s.Device().BlockSize()
		n := 4 * bs
		loadFile(t, s, 8)
		p := tb.A.Genie.NewProcess()
		var va vm.Addr
		if !sem.SystemAllocated() {
			va = mustBrk(t, p, n)
			if err := p.Write(va, make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Cache().EnsureRange(0, 1); err != nil {
			t.Fatal(err)
		}
		free, resident, regions := tb.A.Phys.FreeFrames(), s.Cache().Resident(), len(p.Space().Regions())

		armed := true
		tb.A.Phys.SetAllocFault(func() bool { return armed })
		_, err := s.FileRead(p, sem, 0, n, va)
		direct := sem == Share || sem == EmulatedShare
		if direct && err != nil {
			t.Fatalf("%v: direct read with failing cache allocation: %v", sem, err)
		}
		if !direct && !errors.Is(err, mem.ErrOutOfMemory) {
			t.Fatalf("%v: FileRead with failing cache fill: err %v, want ErrOutOfMemory", sem, err)
		}
		armed = false
		tb.Run()
		if got := tb.A.Phys.FreeFrames(); got != free {
			t.Errorf("%v: %d free frames after the failed read, want %d", sem, got, free)
		}
		if got := s.Cache().Resident(); got != resident {
			t.Errorf("%v: %d resident cache pages after the failed read, want %d", sem, got, resident)
		}
		if got := len(p.Space().Regions()); got != regions {
			t.Errorf("%v: %d regions after the failed read, want %d", sem, got, regions)
		}
		for _, r := range p.Space().Regions() {
			if r.State() == vm.MovingIn {
				t.Errorf("%v: region %v left moving in", sem, r)
			}
		}
		for id := 0; id < tb.A.Phys.NumFrames(); id++ {
			if f := tb.A.Phys.Frame(mem.FrameID(id)); f.Referenced() || f.WireCount() != 0 {
				t.Fatalf("%v: frame still held after the failed read: %v", sem, f)
			}
		}
		if err := tb.A.Phys.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}
		if err := s.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", sem, err)
		}

		op, err := s.FileRead(p, sem, 0, n, va)
		if err != nil {
			t.Fatalf("%v: read after disarming: %v", sem, err)
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			t.Fatalf("%v: read after disarming not done (err %v)", sem, op.Err)
		}
		for b := 0; b < 4; b++ {
			if got := readBack(t, p, op.Addr+vm.Addr(b*bs), bs); !bytes.Equal(got, filePattern(b, bs)) {
				t.Fatalf("%v: block %d read back wrong after disarming", sem, b)
			}
		}
	}
}
