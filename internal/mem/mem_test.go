package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewLayout(t *testing.T) {
	pm := New(8, 4096)
	if pm.PageSize() != 4096 || pm.NumFrames() != 8 || pm.FreeFrames() != 8 {
		t.Fatalf("unexpected geometry: %d/%d/%d", pm.PageSize(), pm.NumFrames(), pm.FreeFrames())
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFrameSize pins a Frame at 96 bytes on 64-bit platforms. Every
// record chunk a machine builds for the frames it touches is 64 of
// them, one 6 KiB allocation, so symbolic writes rebuild a frame's run
// list in its own storage rather than keeping a spare list per frame.
func TestFrameSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size is the 64-bit layout")
	}
	if got := unsafe.Sizeof(Frame{}); got != 96 {
		t.Errorf("Frame is %d bytes, want 96", got)
	}
}

// TestNewIsConstant: a machine of 1<<20 frames costs one small
// allocation to build, whatever its size, because frame records are
// built on first use and the untouched free list is a count.
func TestNewIsConstant(t *testing.T) {
	var pm *PhysMem
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 10
	for range runs {
		pm = New(1<<20, 4096)
	}
	runtime.ReadMemStats(&m1)
	if a, b := float64(m1.Mallocs-m0.Mallocs)/runs, float64(m1.TotalAlloc-m0.TotalAlloc)/runs; a > 1 || b > 512 {
		t.Errorf("New(1<<20, 4096) allocates %.1f times, %.0f bytes; want at most 1 and 512", a, b)
	}
	if pm.Records() != 0 || pm.FreeFrames() != 1<<20 {
		t.Errorf("fresh PhysMem: %d records, %d free frames; want 0 and %d", pm.Records(), pm.FreeFrames(), 1<<20)
	}
}

// TestColdFreeListGrowsOnce: a cold machine that hands out 1000 frames
// and frees them grows its free list once, to the number handed out,
// instead of doubling up to it. The bound counts the machine, its record
// chunks, their directory's growths and that one free list.
func TestColdFreeListGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	const n = 1000
	fs := make([]*Frame, 0, n)
	a := testing.AllocsPerRun(10, func() {
		pm := New(1024, 4096)
		fs = fs[:0]
		for range n {
			f, err := pm.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
		for _, f := range fs {
			pm.Release(f)
		}
	})
	if a > 23 {
		t.Errorf("cold New + %d Alloc + %d Release: %v allocations, want at most 23", n, n, a)
	}
}

// TestRecordsFollowUse: a machine builds the record chunks of the
// frames it hands out and no others. AllocBlock builds none, Frame and
// an allocation build their frame's chunk, and Seal, Reset, Readmit and
// CheckInvariants build nothing. A record built for a block frame is
// attached; one built above the frames handed out is free.
func TestRecordsFollowUse(t *testing.T) {
	pm := New(1<<20, 4096)
	first, err := pm.AllocBlock(1000)
	if err != nil || first != 0 {
		t.Fatalf("AllocBlock(1000) = %d, %v; want frame 0", first, err)
	}
	pm.Seal()
	check := func(when string, want int) {
		t.Helper()
		if err := pm.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got := pm.Records(); got != want {
			t.Fatalf("%s: %d records built, want %d", when, got, want)
		}
	}
	check("after AllocBlock and Seal", 0)
	if f := pm.Frame(999); !f.Attached() || f.Free() || f.Size() != 4096 {
		t.Fatalf("block frame's record built as %v, size %d", f, f.Size())
	}
	check("after Frame(999)", RecordChunk) // chunk [960, 1024)
	fs, err := pm.AllocN(nil, 30)
	if err != nil || fs[0].ID() != 1000 || fs[29].ID() != 1029 {
		t.Fatalf("AllocN(30) after the block: %v, %v", fs, err)
	}
	check("after 30 allocations", 2*RecordChunk) // and [1024, 1088)
	if f := pm.Frame(1087); !f.Free() || f.Attached() || f.Size() != 0 {
		t.Fatalf("record above the frames handed out built as %v, size %d", f, f.Size())
	}
	pm.Readmit(pm.Frame(999))
	pm.Reset()
	check("after Reset", 2*RecordChunk)
	if f, err := pm.Alloc(); err != nil || f.ID() != 1000 {
		t.Fatalf("first allocation after Reset: %v, %v; want frame 1000", f, err)
	}
	check("after an allocation", 2*RecordChunk)
	if a := testing.AllocsPerRun(10, func() { _ = pm.CheckInvariants() }); a != 0 {
		t.Fatalf("warm CheckInvariants: %v allocs, want 0", a)
	}
}

// TestAllocBlockMatchesAllocN: a block takes the frames, statistics,
// high-water mark and fault-hook consultations of as many Alloc calls,
// and one the fault hook fails releases what it took.
func TestAllocBlockMatchesAllocN(t *testing.T) {
	for _, fail := range []int{0, 3} {
		run := func(take func(pm *PhysMem) error) (*PhysMem, int, error) {
			pm := New(200, 64)
			calls := 0
			pm.SetAllocFault(func() bool { calls++; return calls == fail })
			err := take(pm)
			return pm, calls, err
		}
		a, ca, ea := run(func(pm *PhysMem) error { _, err := pm.AllocBlock(100); return err })
		b, cb, eb := run(func(pm *PhysMem) error {
			fs, err := pm.AllocN(nil, 100)
			if err != nil {
				for _, f := range fs {
					pm.Release(f)
				}
			}
			return err
		})
		if (ea == nil) != (eb == nil) || ca != cb || a.Stats() != b.Stats() || a.HighWater() != b.HighWater() || a.FreeFrames() != b.FreeFrames() {
			t.Fatalf("fail at %d: AllocBlock: %v, %d hook calls, %+v, high water %d, %d free; AllocN: %v, %d, %+v, %d, %d free",
				fail, ea, ca, a.Stats(), a.HighWater(), a.FreeFrames(), eb, cb, b.Stats(), b.HighWater(), b.FreeFrames())
		}
		for range a.FreeFrames() {
			f, _ := a.Alloc()
			g, _ := b.Alloc()
			if f.ID() != g.ID() {
				t.Fatalf("fail at %d: next frame %d after AllocBlock, %d after AllocN", fail, f.ID(), g.ID())
			}
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	pm := New(8, 64)
	if _, err := pm.AllocBlock(9); !errors.Is(err, ErrOutOfMemory) || pm.FreeFrames() != 8 {
		t.Fatalf("AllocBlock(9) of 8 frames: %v with %d free; want ErrOutOfMemory, nothing taken", err, pm.FreeFrames())
	}
	f, _ := pm.Alloc()
	pm.Release(f)
	if _, err := pm.AllocBlock(2); err == nil || pm.FreeFrames() != 8 {
		t.Fatalf("AllocBlock over a released frame: %v with %d free; want an error, nothing taken", err, pm.FreeFrames())
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	for _, args := range [][2]int{{0, 4096}, {8, 0}, {-1, 4096}, {8, -4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", args[0], args[1])
				}
			}()
			New(args[0], args[1])
		}()
	}
}

func TestAllocFreeCycle(t *testing.T) {
	pm := New(4, 64)
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if f.Free() || !f.Attached() {
		t.Fatalf("allocated frame in wrong state: %v", f)
	}
	if pm.FreeFrames() != 3 {
		t.Fatalf("free frames = %d, want 3", pm.FreeFrames())
	}
	pm.Release(f)
	if !f.Free() || f.Attached() {
		t.Fatalf("released frame in wrong state: %v", f)
	}
	if pm.FreeFrames() != 4 {
		t.Fatalf("free frames = %d, want 4", pm.FreeFrames())
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustion(t *testing.T) {
	pm := New(2, 64)
	a, _ := pm.Alloc()
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("second alloc failed early: %v", err)
	}
	if _, err := pm.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if pm.Stats().FailedAllocs != 1 {
		t.Fatalf("FailedAllocs = %d, want 1", pm.Stats().FailedAllocs)
	}
	pm.Release(a)
	if _, err := pm.Alloc(); err != nil {
		t.Fatalf("alloc after release failed: %v", err)
	}
}

func TestAllocZeroed(t *testing.T) {
	pm := New(2, 16)
	f, _ := pm.Alloc()
	for i := range f.Data() {
		f.Data()[i] = 0xAB
	}
	pm.Release(f)
	g, _ := pm.AllocZeroed()
	if g.ID() != f.ID() {
		t.Fatalf("LIFO free list should reuse frame %d, got %d", f.ID(), g.ID())
	}
	for i, b := range g.Data() {
		if b != 0 {
			t.Fatalf("byte %d = %#x after AllocZeroed", i, b)
		}
	}
}

func TestPlainAllocKeepsStaleData(t *testing.T) {
	// The dirty-reuse hazard that motivates I/O-deferred deallocation.
	pm := New(2, 16)
	f, _ := pm.Alloc()
	f.Data()[0] = 0x5A
	pm.Release(f)
	g, _ := pm.Alloc()
	if g.Data()[0] != 0x5A {
		t.Fatal("expected stale data to survive plain Alloc")
	}
}

func TestDeferredFree(t *testing.T) {
	pm := New(2, 64)
	f, _ := pm.Alloc()
	pm.RefOutput(f)
	pm.Release(f) // app deallocates during pending output
	if f.Free() {
		t.Fatal("frame freed while output reference outstanding")
	}
	if !f.PendingFree() {
		t.Fatalf("frame not pending free: %v", f)
	}
	if pm.Stats().DeferredFrees != 1 {
		t.Fatalf("DeferredFrees = %d, want 1", pm.Stats().DeferredFrees)
	}
	// The frame must not be allocatable while referenced.
	g, _ := pm.Alloc()
	if g != nil && g.ID() == f.ID() {
		t.Fatal("referenced frame reallocated to another owner")
	}
	pm.UnrefOutput(f)
	if !f.Free() {
		t.Fatal("deferred free did not complete on last unreference")
	}
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredFreeMultipleRefs(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.RefInput(f)
	pm.RefInput(f)
	pm.RefOutput(f)
	pm.Release(f)
	pm.UnrefInput(f)
	pm.UnrefOutput(f)
	if f.Free() {
		t.Fatal("freed with an input reference outstanding")
	}
	pm.UnrefInput(f)
	if !f.Free() {
		t.Fatal("not freed after last unreference")
	}
}

func TestUnrefWhileAttachedDoesNotFree(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.RefInput(f)
	pm.UnrefInput(f)
	if f.Free() || !f.Attached() {
		t.Fatalf("attached frame freed by unreference: %v", f)
	}
}

func TestWireCounts(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.Wire(f)
	pm.Wire(f)
	if !f.Wired() || f.WireCount() != 2 {
		t.Fatalf("wire count = %d, want 2", f.WireCount())
	}
	pm.Unwire(f)
	if !f.Wired() {
		t.Fatal("frame unwired too early")
	}
	pm.Unwire(f)
	if f.Wired() {
		t.Fatal("frame still wired")
	}
}

func TestReleaseClearsWiring(t *testing.T) {
	pm := New(1, 64)
	f, _ := pm.Alloc()
	pm.Wire(f)
	pm.Release(f)
	if f.Wired() {
		t.Fatal("released frame still wired")
	}
}

func TestPanics(t *testing.T) {
	pm := New(2, 64)
	f, _ := pm.Alloc()
	pm.Release(f)
	expectPanic(t, "double free", func() { pm.Release(f) })
	expectPanic(t, "ref free frame", func() { pm.RefInput(f) })
	expectPanic(t, "ref free frame out", func() { pm.RefOutput(f) })
	expectPanic(t, "wire free frame", func() { pm.Wire(f) })
	g, _ := pm.Alloc()
	expectPanic(t, "unref underflow in", func() { pm.UnrefInput(g) })
	expectPanic(t, "unref underflow out", func() { pm.UnrefOutput(g) })
	expectPanic(t, "unwire underflow", func() { pm.Unwire(g) })
	expectPanic(t, "bad frame id", func() { pm.Frame(99) })
}

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

func TestStats(t *testing.T) {
	pm := New(4, 64)
	a, _ := pm.Alloc()
	b, _ := pm.AllocZeroed()
	pm.Release(a)
	pm.RefInput(b)
	pm.Release(b)
	pm.UnrefInput(b)
	s := pm.Stats()
	if s.Allocs != 2 || s.Frees != 2 || s.DeferredFrees != 1 || s.Zeroed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: under random operation sequences, the frame-state invariants
// hold and the number of usable frames is conserved.
func TestPropertyInvariantsUnderRandomOps(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := New(8, 32)
		var live []*Frame
		for op := 0; op < 300; op++ {
			switch rng.Intn(6) {
			case 0:
				if f, err := pm.Alloc(); err == nil {
					live = append(live, f)
				}
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					pm.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				if len(live) > 0 {
					pm.RefInput(live[rng.Intn(len(live))])
				}
			case 3:
				if len(live) > 0 {
					pm.RefOutput(live[rng.Intn(len(live))])
				}
			case 4:
				if len(live) > 0 {
					f := live[rng.Intn(len(live))]
					if f.InRefs() > 0 {
						pm.UnrefInput(f)
					}
				}
			case 5:
				if len(live) > 0 {
					f := live[rng.Intn(len(live))]
					if f.OutRefs() > 0 {
						pm.UnrefOutput(f)
					}
				}
			}
			if err := pm.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		// Drain all references on released frames; everything not live
		// must end up free.
		for i := 0; i < pm.NumFrames(); i++ {
			f := pm.Frame(FrameID(i))
			if f.Attached() {
				continue
			}
			for f.InRefs() > 0 {
				pm.UnrefInput(f)
			}
			for f.OutRefs() > 0 {
				pm.UnrefOutput(f)
			}
		}
		return pm.FreeFrames() == pm.NumFrames()-len(live) && pm.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a frame released while referenced is never handed out by
// Alloc before its last unreference.
func TestPropertyNoDirtyReuse(t *testing.T) {
	prop := func(nRefs uint8) bool {
		pm := New(2, 16)
		f, _ := pm.Alloc()
		refs := int(nRefs%5) + 1
		for i := 0; i < refs; i++ {
			pm.RefOutput(f)
		}
		pm.Release(f)
		for i := 0; i < refs; i++ {
			// While any reference remains, f must not be allocatable.
			g, err := pm.Alloc()
			if err == nil {
				if g.ID() == f.ID() {
					return false
				}
				pm.Release(g)
			}
			pm.UnrefOutput(f)
		}
		g, err := pm.Alloc()
		return err == nil && g.ID() == f.ID()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocRelease(b *testing.B) {
	pm := New(64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := pm.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		pm.Release(f)
	}
}

// BenchmarkPhysMemReset times a run that allocates and frees 8 frames
// followed by Reset, on a 512-frame and a 65536-frame machine. Reset
// re-initializes only the frames allocated since the last Reset, so
// the two sizes cost the same.
func BenchmarkPhysMemReset(b *testing.B) {
	for _, frames := range []int{512, 65536} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			pm := New(frames, 4096)
			var touched [8]*Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for i := range touched {
					touched[i], _ = pm.Alloc()
				}
				for _, f := range touched {
					pm.Release(f)
				}
				pm.Reset()
			}
		})
	}
}

func TestLazyMaterialization(t *testing.T) {
	pm := New(4, 16)
	for i := 0; i < 4; i++ {
		if data := pm.Frame(FrameID(i)).Data(); data != nil {
			t.Fatalf("frame %d has backing data before first allocation", i)
		}
	}
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Data()) != 16 {
		t.Fatalf("allocated frame has %d bytes of backing, want 16", len(f.Data()))
	}
	for i, b := range f.Data() {
		if b != 0 {
			t.Fatalf("byte %d = %#x on first materialization, want 0 (power-on memory)", i, b)
		}
	}
	// The other frames stay unmaterialized.
	for i := 1; i < 4; i++ {
		if pm.Frame(FrameID(i)).Data() != nil {
			t.Fatalf("frame %d materialized without being allocated", i)
		}
	}
}

// A bytes-plane frame gets its backing store on its first write, not at
// allocation: Alloc, AllocZeroed and reads leave it without one, and
// WriteBuf, CopyFrom and Data each materialize it.
func TestFramesMaterializeOnFirstWrite(t *testing.T) {
	pm := New(8, 16)
	frames := make([]*Frame, 5)
	for i := range frames {
		f, err := pm.Alloc()
		if i%2 == 1 {
			pm.Release(f)
			f, err = pm.AllocZeroed()
		}
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	for _, f := range frames {
		if f.data != nil || f.Size() != 16 {
			t.Fatalf("%v: backing %d bytes, size %d after allocation; want none and 16", f, len(f.data), f.Size())
		}
	}
	untouched := frames[4]
	untouched.ReadBuf(0, 16)
	untouched.ReadAt(make([]byte, 4), 2)
	untouched.ClearRange(0, 16)
	GatherFrames(frames[4:], 3, 9)
	if untouched.data != nil {
		t.Fatal("a read or clear materialized the backing store")
	}

	frames[0].WriteBuf(3, BufBytes([]byte{1, 2}))
	frames[1].CopyFrom(frames[0])
	frames[2].Data()
	frames[3].CopyFrom(untouched)
	for i, f := range frames[:3] {
		if len(f.data) != 16 {
			t.Errorf("frame %d: backing %d bytes after its first write, want 16", i, len(f.data))
		}
	}
	if frames[3].data != nil {
		t.Error("copying an untouched frame materialized the destination")
	}
	if got := frames[1].ReadBuf(0, 16).Resolve(); got[3] != 1 || got[4] != 2 {
		t.Errorf("CopyFrom of a written frame = %v", got)
	}
}

// An untouched frame reads as zeros through every accessor, including
// into dirty destinations, and copying it over a written frame zeroes
// that frame.
func TestUntouchedFrameReadsZeros(t *testing.T) {
	pm := New(4, 16)
	dirty, _ := pm.Alloc()
	untouched, _ := pm.Alloc()
	copy(dirty.Data(), bytes.Repeat([]byte{0xAB}, 16))

	zeros := make([]byte, 16)
	p := bytes.Repeat([]byte{0xFF}, 10)
	untouched.ReadAt(p, 5)
	if !bytes.Equal(p, zeros[:10]) {
		t.Errorf("ReadAt = %x", p)
	}
	if got := untouched.ReadBuf(2, 12).Resolve(); !bytes.Equal(got, zeros[:12]) {
		t.Errorf("ReadBuf = %x", got)
	}
	got := GatherFrames([]*Frame{dirty, untouched}, 12, 8).Resolve()
	if want := []byte{0xAB, 0xAB, 0xAB, 0xAB, 0, 0, 0, 0}; !bytes.Equal(got, want) {
		t.Errorf("GatherFrames across written and untouched = %x, want %x", got, want)
	}
	dirty.CopyFrom(untouched)
	if got := dirty.ReadBuf(0, 16).Resolve(); !bytes.Equal(got, zeros) {
		t.Errorf("CopyFrom(untouched) left %x", got)
	}
	if d := untouched.Data(); !bytes.Equal(d, zeros) {
		t.Errorf("Data of untouched frame = %x, want 16 zero bytes", d)
	}
}

// ExchangeData moves backing stores between owners without copying: the
// frame takes the given store as its contents (nil reads as zeros until
// the next write) and hands back the one it had, and it refuses a store
// of another size and a symbolic frame.
func TestExchangeData(t *testing.T) {
	pm := New(2, 16)
	f, _ := pm.Alloc()
	if old := f.ExchangeData(nil); old != nil {
		t.Fatalf("unwritten frame handed back %d bytes", len(old))
	}
	f.WriteAt(0, bytes.Repeat([]byte{1}, 16))
	store := bytes.Repeat([]byte{2}, 16)
	old := f.ExchangeData(store)
	if !bytes.Equal(old, bytes.Repeat([]byte{1}, 16)) {
		t.Fatalf("handed back %x, want the frame's written store", old)
	}
	if got := f.ReadBuf(0, 16).Resolve(); !bytes.Equal(got, store) {
		t.Fatalf("frame reads %x after the exchange, want %x", got, store)
	}
	f.WriteAt(3, []byte{9})
	if store[3] != 9 || old[3] != 1 {
		t.Fatal("a write after the exchange did not land in the installed store alone")
	}
	if f.ExchangeData(nil); !bytes.Equal(f.ReadBuf(0, 16).Resolve(), make([]byte, 16)) {
		t.Fatal("frame with no store does not read zeros")
	}
	for name, fn := range map[string]func(){
		"short store": func() { f.ExchangeData(make([]byte, 15)) },
		"symbolic": func() {
			g, _ := NewWithPlane(1, 16, Symbolic).Alloc()
			g.ExchangeData(nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ExchangeData did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Lazy backing stores change no allocation accounting: a scripted
// sequence of plain and zeroed allocations over written, unwritten and
// recycled frames counts the same Allocs, Frees and Zeroed as eager
// backing stores did, and every zeroed frame reads zero.
func TestLazyFrameStats(t *testing.T) {
	pm := New(4, 16)
	a, _ := pm.Alloc()       // frame 0
	b, _ := pm.AllocZeroed() // frame 1, pristine
	a.WriteAt(0, []byte{1, 2, 3})
	pm.Release(a)
	pm.Release(b)
	c, _ := pm.AllocZeroed() // frame 1, never written
	d, _ := pm.AllocZeroed() // frame 0, dirty: really cleared
	for _, f := range []*Frame{c, d} {
		if got := f.ReadBuf(0, 16).Resolve(); !bytes.Equal(got, make([]byte, 16)) {
			t.Errorf("%v reads %x after AllocZeroed", f, got)
		}
	}
	pm.Release(c)
	e, _ := pm.Alloc() // frame 1 again
	if e.ID() != 1 || d.ID() != 0 {
		t.Fatalf("free-list order changed: e=%d d=%d", e.ID(), d.ID())
	}
	want := Stats{Allocs: 5, Frees: 3, Zeroed: 3}
	if got := pm.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestAllocZeroedSkipsPristineClear(t *testing.T) {
	pm := New(2, 16)
	// First allocation of a frame: the backing is freshly materialized
	// (all zero), so AllocZeroed must count it as zeroed without needing
	// a clear, and the data must read zero either way.
	f, err := pm.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	if got := pm.Stats().Zeroed; got != 1 {
		t.Fatalf("Stats.Zeroed = %d after first AllocZeroed, want 1", got)
	}
	for i, b := range f.Data() {
		if b != 0 {
			t.Fatalf("byte %d = %#x after AllocZeroed on pristine frame", i, b)
		}
	}
	// Dirty the frame and recycle it: now AllocZeroed must really clear.
	f.Data()[3] = 0x77
	pm.Release(f)
	g, err := pm.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != f.ID() {
		t.Fatalf("LIFO free list should reuse frame %d, got %d", f.ID(), g.ID())
	}
	if g.Data()[3] != 0 {
		t.Fatal("recycled dirty frame not cleared by AllocZeroed")
	}
	if got := pm.Stats().Zeroed; got != 2 {
		t.Fatalf("Stats.Zeroed = %d after second AllocZeroed, want 2", got)
	}
}

func TestReset(t *testing.T) {
	pm := New(4, 16)
	f0, _ := pm.Alloc()
	f0.Data()[0] = 0xEE
	f1, _ := pm.Alloc()
	pm.Wire(f1)
	pm.RefInput(f1)
	pm.Release(f0)

	pm.Reset()
	if err := pm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if pm.FreeFrames() != pm.NumFrames() {
		t.Fatalf("free frames = %d after Reset, want %d", pm.FreeFrames(), pm.NumFrames())
	}
	if pm.Stats() != (Stats{}) {
		t.Fatalf("stats = %+v after Reset, want zero", pm.Stats())
	}
	// Canonical free-list order: allocation starts over at frame 0, and
	// the retained backing store keeps its (stale) contents.
	g, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if g.ID() != 0 {
		t.Fatalf("first allocation after Reset returned frame %d, want 0", g.ID())
	}
	if g.Data()[0] != 0xEE {
		t.Fatal("Reset reallocated the backing store instead of retaining it")
	}
	if g.Referenced() || g.Wired() {
		t.Fatalf("frame carries stale ref/wire counts after Reset: %v", g)
	}
	// A Reset frame is not pristine: AllocZeroed must clear it.
	pm.Reset()
	z, err := pm.AllocZeroed()
	if err != nil {
		t.Fatal(err)
	}
	if z.Data()[0] != 0 {
		t.Fatal("AllocZeroed returned stale data after Reset")
	}
}

// CheckInvariants catches a corrupt free list — a frame listed twice,
// an id outside memory or in the untouched block, a free flag the list
// disagrees with — and a warm audit allocates nothing.
func TestCheckInvariantsFreeList(t *testing.T) {
	pm := New(4, 16)
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	g, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	pm.Release(g) // the list above the untouched block is [1]
	if a := testing.AllocsPerRun(10, func() { _ = pm.CheckInvariants() }); a != 0 {
		t.Fatalf("warm CheckInvariants: %v allocs, want 0", a)
	}
	list := pm.freeList
	for _, tc := range []struct {
		name    string
		corrupt func()
	}{
		{"duplicate", func() { pm.freeList = append(list[:len(list):len(list)], list[len(list)-1]) }},
		{"out of range", func() { pm.freeList = append(list[:len(list):len(list)], FrameID(pm.NumFrames())) }},
		{"untouched", func() { pm.freeList = append(list[:len(list):len(list)], FrameID(pm.NumFrames()-1)) }},
		{"negative", func() { pm.freeList = append(list[:len(list):len(list)], -1) }},
		{"free flag", func() { f.free = true }},
	} {
		tc.corrupt()
		if pm.CheckInvariants() == nil {
			t.Errorf("%s: CheckInvariants passed a corrupt free list", tc.name)
		}
		pm.freeList, f.free = list, false
		if err := pm.CheckInvariants(); err != nil {
			t.Fatalf("after restoring %s: %v", tc.name, err)
		}
	}
}
