package core

import (
	"bytes"
	"runtime"
	"testing"

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
