package vm

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// TestSymbolicGatherScatterAllocs gates the symbolic plane's one-pass
// gathers and scatters on warm resident frames. A gather of 15
// contiguous pattern pages builds one run list (one allocation); a
// scatter writes each page's window of its source in place (none), at
// a page-aligned address and at offset 1000, whose partial first and
// last pages splice; and a sub-page write into a page of at most 16
// runs splices in a stack array and reuses the frame's run storage
// (none). Building a per-page Buf on either side costs at least one
// allocation per page.
func TestSymbolicGatherScatterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	const n = 61440
	sys := NewSystem(mem.NewWithPlane(32, testPageSize, mem.Symbolic))
	as := sys.NewAddressSpace()
	r := mustRegion(t, as, n+2*testPageSize, Unmovable)
	payload := mem.PatternBuf(mem.NewPatternSource(), 0, n)
	if err := as.PokeBuf(r.Start(), mem.ZeroBuf(r.Len())); err != nil {
		t.Fatal(err) // faults every page in
	}
	if err := as.PokeBuf(r.Start(), payload); err != nil {
		t.Fatal(err)
	}

	gate := func(name string, want float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(50, fn); got != want {
			t.Errorf("%s: %.1f allocations, want %.0f", name, got, want)
		}
	}
	var sink mem.Buf
	gate("PeekBuf of 15 contiguous pattern pages", 1, func() {
		var err error
		if sink, err = as.PeekBuf(r.Start(), n); err != nil {
			t.Fatal(err)
		}
	})
	if !sink.Equal(payload) || len(sink.Runs()) != 1 {
		t.Fatalf("PeekBuf gathered %d runs, want the payload's one", len(sink.Runs()))
	}
	out := new(IORef)
	if err := as.ReferenceRangeInto(out, r.Start(), n, false); err != nil {
		t.Fatal(err)
	}
	gate("DMAReadBuf of 15 contiguous pattern pages", 1, func() { sink = out.DMAReadBuf(0, n) })
	if !sink.Equal(payload) {
		t.Fatal("DMAReadBuf gathered the wrong bytes")
	}
	out.Unreference()

	for _, off := range []int{0, 1000} {
		va := r.Start() + Addr(off)
		at := fmt.Sprintf(" at offset %d", off)
		gate("PokeBuf"+at, 0, func() {
			if err := as.PokeBuf(va, payload); err != nil {
				t.Fatal(err)
			}
		})
		in := new(IORef)
		if err := as.ReferenceRangeInto(in, va, n, true); err != nil {
			t.Fatal(err)
		}
		gate("DMAWrite"+at, 0, func() { in.DMAWrite(0, payload) })
		frames := in.Frames()
		gate("ScatterFrames"+at, 0, func() { mem.ScatterFrames(frames, off, payload) })
		in.Unreference()
		if got, err := as.PeekBuf(va, n); err != nil || !got.Equal(payload) {
			t.Fatalf("offset %d: scatters left the wrong bytes (%v)", off, err)
		}
	}

	// A page of 14 runs (13 pattern extents from distinct sources and
	// the payload's tail); the write splits one of them into three.
	pte, _ := as.PTEAt(r.Start())
	f := pte.Frame
	for i := range 13 {
		f.WriteBuf(i*256, mem.PatternBuf(mem.NewPatternSource(), 0, 256))
	}
	ins := mem.PatternBuf(mem.NewPatternSource(), 0, 100)
	gate("sub-page write into a 16-run page", 0, func() { f.WriteBuf(300, ins) })
	if got := len(f.ReadBuf(0, testPageSize).Runs()); got != 16 {
		t.Fatalf("page holds %d runs, want 16", got)
	}
}
