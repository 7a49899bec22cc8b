package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/vm"
)

func newEarlyTestbed(t *testing.T) (*Testbed, *Process, *Process) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	return tb, tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess()
}

func TestShortDataConvertsToCopy(t *testing.T) {
	tb, sender, receiver := newEarlyTestbed(t)
	srcVA, _ := sender.Brk(8192)
	dstVA, _ := receiver.Brk(8192)
	if err := sender.Write(srcVA, []byte("short")); err != nil {
		t.Fatal(err)
	}

	// Emulated copy below 1666 bytes converts.
	out, _, err := tb.Transfer(sender, receiver, 1, EmulatedCopy, srcVA, dstVA, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converted() || out.Effective != Copy {
		t.Errorf("1000-byte emulated copy output: converted=%t effective=%v", out.Converted(), out.Effective)
	}
	// At or above the threshold it does not.
	out, _, err = tb.Transfer(sender, receiver, 1, EmulatedCopy, srcVA, dstVA, 1666)
	if err != nil {
		t.Fatal(err)
	}
	if out.Converted() {
		t.Error("1666-byte emulated copy output converted")
	}
	// Emulated share converts below 280.
	out, _, err = tb.Transfer(sender, receiver, 1, EmulatedShare, srcVA, dstVA, 279)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converted() {
		t.Error("279-byte emulated share output not converted")
	}
	if tb.A.Genie.Stats().ConvertedToCopy != 2 {
		t.Errorf("ConvertedToCopy = %d, want 2", tb.A.Genie.Stats().ConvertedToCopy)
	}
}

// TestReverseCopyoutThreshold checks the two sides of the Section 5.2
// decision: fills below the threshold are copied out, fills above it are
// completed from the application page and swapped.
func TestReverseCopyoutThreshold(t *testing.T) {
	run := func(length int) Stats {
		tb, sender, receiver := newEarlyTestbed(t)
		srcVA, _ := sender.Brk(8192)
		dstVA, _ := receiver.Brk(8192)
		payload := bytes.Repeat([]byte{0x42}, length)
		if err := sender.Write(srcVA, payload); err != nil {
			t.Fatal(err)
		}
		_, in, err := tb.Transfer(sender, receiver, 1, EmulatedCopy, srcVA, dstVA, length)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, length)
		if err := receiver.Read(in.Addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("length %d: data corrupted", length)
		}
		return tb.B.Genie.Stats()
	}

	// 2000 < 2178: partial copyout, no swap. (2000 is above the output
	// conversion threshold of 1666, so this exercises the input path.)
	st := run(2000)
	if st.PartialCopyouts != 1 || st.ReverseCopyouts != 0 || st.SwappedPages != 0 {
		t.Errorf("2000 bytes: %+v, want one partial copyout", st)
	}
	// 3000 > 2178: reverse copyout then swap.
	st = run(3000)
	if st.ReverseCopyouts != 1 || st.SwappedPages != 1 || st.PartialCopyouts != 0 {
		t.Errorf("3000 bytes: %+v, want one reverse copyout", st)
	}
	// 8192: two full page swaps, nothing copied.
	st = run(8192)
	if st.SwappedPages != 2 || st.ReverseCopyouts != 0 || st.PartialCopyouts != 0 {
		t.Errorf("8192 bytes: %+v, want two clean swaps", st)
	}
}

// TestFigure5Shape reproduces the short-datagram behaviour: copy is
// cheapest for tiny datagrams; emulated copy tracks copy up to about
// half a page and then flattens; emulated share is lowest overall at
// half a page (paper: 325 vs 254 us at 2 KB); move is by far the worst
// for short data because of page zeroing.
func TestFigure5Shape(t *testing.T) {
	latency := func(sem Semantics, length int) float64 {
		tb, sender, receiver := newEarlyTestbed(t)
		var srcVA, dstVA vm.Addr
		if sem.SystemAllocated() {
			r, err := sender.AllocIOBuffer(length)
			if err != nil {
				t.Fatal(err)
			}
			srcVA = r.Start()
		} else {
			srcVA, _ = sender.Brk(8192)
			dstVA, _ = receiver.Brk(8192)
		}
		if err := sender.Write(srcVA, bytes.Repeat([]byte{1}, length)); err != nil {
			t.Fatal(err)
		}
		out, in, err := tb.Transfer(sender, receiver, 1, sem, srcVA, dstVA, length)
		if err != nil {
			t.Fatal(err)
		}
		return in.CompletedAt.Sub(out.StartedAt).Micros()
	}

	// Paper: copy's latency at the shortest lengths is ~145 us.
	if l := latency(Copy, 64); math.Abs(l-145) > 12 {
		t.Errorf("copy latency at 64 bytes = %.0f us, paper says ~145", l)
	}
	// At half a page: emulated copy ~325 us, emulated share ~254 us.
	if l := latency(EmulatedCopy, 2048); math.Abs(l-325) > 20 {
		t.Errorf("emulated copy at 2 KB = %.0f us, paper says ~325", l)
	}
	if l := latency(EmulatedShare, 2048); math.Abs(l-254) > 20 {
		t.Errorf("emulated share at 2 KB = %.0f us, paper says ~254", l)
	}
	// Below its threshold emulated copy equals copy exactly.
	if lc, lec := latency(Copy, 1024), latency(EmulatedCopy, 1024); math.Abs(lc-lec) > 0.01 {
		t.Errorf("below threshold: emulated copy %.1f != copy %.1f", lec, lc)
	}
	// Move is by far the worst for short data (page zeroing).
	lm := latency(Move, 64)
	for _, sem := range []Semantics{Copy, EmulatedCopy, EmulatedShare, EmulatedMove, EmulatedWeakMove} {
		if l := latency(sem, 64); l >= lm {
			t.Errorf("%v (%.0f us) not below move (%.0f us) at 64 bytes", sem, l, lm)
		}
	}
	// Emulated move is much cheaper than move for short data: region
	// hiding avoids the zeroing.
	if lem := latency(EmulatedMove, 64); lm-lem < 50 {
		t.Errorf("emulated move %.0f vs move %.0f: region hiding advantage missing", lem, lm)
	}
}

// TestOutputIntegrityAcrossSemantics overwrites the send buffer right
// after Output returns (before the frame is serialized) and checks who
// sees it: strong-integrity semantics deliver the original data, share
// delivers the overwrite.
func TestOutputIntegrityAcrossSemantics(t *testing.T) {
	const length = 2 * 4096
	for _, sem := range []Semantics{Copy, EmulatedCopy, Share, EmulatedShare} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tb, sender, receiver := newEarlyTestbed(t)
			srcVA, _ := sender.Brk(length)
			dstVA, _ := receiver.Brk(length)
			orig := bytes.Repeat([]byte{0xAA}, length)
			if err := sender.Write(srcVA, orig); err != nil {
				t.Fatal(err)
			}
			in, err := receiver.Input(1, sem, dstVA, length)
			if err != nil {
				t.Fatal(err)
			}
			out, err := sender.Output(1, sem, srcVA, length)
			if err != nil {
				t.Fatal(err)
			}
			// Overwrite before any simulated time elapses (the frame has
			// not been serialized yet).
			clobber := bytes.Repeat([]byte{0xBB}, length)
			if err := sender.Write(srcVA, clobber); err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if out.Err != nil || in.Err != nil {
				t.Fatal(out.Err, in.Err)
			}
			got := make([]byte, length)
			if err := receiver.Read(in.Addr, got); err != nil {
				t.Fatal(err)
			}
			if sem.WeakIntegrity() {
				if !bytes.Equal(got, clobber) {
					t.Error("share semantics did not expose the overwrite (in-place output broken)")
				}
			} else {
				if !bytes.Equal(got, orig) {
					t.Error("strong-integrity semantics delivered overwritten data")
				}
			}
			// Either way the sender still sees its own overwrite.
			local := make([]byte, length)
			if err := sender.Read(srcVA, local); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(local, clobber) {
				t.Error("sender lost its own write")
			}
		})
	}
}

// TestMoveOutputConsumesBuffer: after move output, the buffer is gone;
// after emulated move output it behaves exactly as if gone (region
// hiding) — the transparency requirement of Section 4.
func TestMoveOutputConsumesBuffer(t *testing.T) {
	for _, sem := range []Semantics{Move, EmulatedMove} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tb, sender, receiver := newEarlyTestbed(t)
			r, err := sender.AllocIOBuffer(4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := sender.Write(r.Start(), []byte("gone")); err != nil {
				t.Fatal(err)
			}
			if _, err := receiver.Input(1, sem, 0, 4096); err != nil {
				t.Fatal(err)
			}
			if _, err := sender.Output(1, sem, r.Start(), 4096); err != nil {
				t.Fatal(err)
			}
			tb.Run()
			buf := make([]byte, 4)
			if err := sender.Read(r.Start(), buf); !errors.Is(err, vm.ErrFault) {
				t.Errorf("read of consumed output buffer: err = %v, want unrecoverable fault", err)
			}
			if err := sender.Write(r.Start(), buf); !errors.Is(err, vm.ErrFault) {
				t.Errorf("write of consumed output buffer: err = %v, want unrecoverable fault", err)
			}
		})
	}
}

// TestWeakMoveBufferStaysMapped: weak move output leaves the buffer
// mapped (reads succeed), and a subsequent input reuses the region,
// exposing the arriving data in place — weak integrity made visible.
func TestWeakMoveBufferStaysMapped(t *testing.T) {
	tb, sender, receiver := newEarlyTestbed(t)
	// Receiver builds its weakly-moved-out region by doing a first
	// transfer, then recycling.
	r0, err := receiver.AllocIOBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := receiver.Write(r0.Start(), bytes.Repeat([]byte{0x11}, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := receiver.RecycleIOBuffer(r0, true); err != nil {
		t.Fatal(err)
	}
	// The weakly-moved-out buffer is still readable (weak integrity).
	buf := make([]byte, 16)
	if err := receiver.Read(r0.Start(), buf); err != nil {
		t.Fatalf("weakly moved out region unreadable: %v", err)
	}

	payload := bytes.Repeat([]byte{0x77}, 4096)
	srcVA := mustIOBuf(t, sender, payload)
	in, err := receiver.Input(1, EmulatedWeakMove, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tb.B.Genie.Stats().RegionsReused != 1 {
		t.Fatal("cached region not reused")
	}
	if _, err := sender.Output(1, EmulatedWeakMove, srcVA, 4096); err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if in.Err != nil {
		t.Fatal(in.Err)
	}
	if in.Region != r0 {
		t.Error("input did not reuse the cached region")
	}
	got := make([]byte, 4096)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("reused region does not hold the new datagram")
	}
}

func TestSystemAllocatedOutputErrors(t *testing.T) {
	_, sender, _ := newEarlyTestbed(t)
	// Unmovable (heap) buffer: move output must refuse.
	heap, _ := sender.Brk(4096)
	if _, err := sender.Output(1, Move, heap, 4096); !errors.Is(err, ErrUnmovableOutput) {
		t.Errorf("move output on heap: err = %v", err)
	}
	// Output not at region start.
	r, err := sender.AllocIOBuffer(2 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Output(1, Move, r.Start()+4096, 4096); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("move output mid-region: err = %v", err)
	}
	// Double output of the same region.
	if _, err := sender.Output(1, EmulatedMove, r.Start(), 2*4096); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Output(1, EmulatedMove, r.Start(), 2*4096); !errors.Is(err, ErrNotMovedIn) {
		t.Errorf("double move output: err = %v", err)
	}
	// No region at all.
	if _, err := sender.Output(1, Move, 0xdead0000, 4096); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("move output on nothing: err = %v", err)
	}
	// Invalid semantics and lengths.
	if _, err := sender.Output(1, Semantics(42), heap, 10); !errors.Is(err, ErrBadSemantics) {
		t.Errorf("bogus semantics: err = %v", err)
	}
	if _, err := sender.Output(1, Copy, heap, 0); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("zero length: err = %v", err)
	}
	if _, err := sender.Input(1, Semantics(42), heap, 10); !errors.Is(err, ErrBadSemantics) {
		t.Errorf("bogus input semantics: err = %v", err)
	}
	if _, err := sender.Input(1, Copy, heap, -1); !errors.Is(err, ErrBadBuffer) {
		t.Errorf("negative input length: err = %v", err)
	}
	// Empty, negative and over-frame lengths, for an emulated output
	// and a copy input alike.
	for _, n := range []int{0, -1, 1 << 30} {
		if _, err := sender.Output(1, EmulatedCopy, heap, n); !errors.Is(err, ErrBadBuffer) {
			t.Errorf("emulated copy output length %d: err = %v, want ErrBadBuffer", n, err)
		}
		if _, err := sender.Input(1, Copy, heap, n); !errors.Is(err, ErrBadBuffer) {
			t.Errorf("copy input length %d: err = %v, want ErrBadBuffer", n, err)
		}
	}
}

// TestFrameConservation runs many transfers under every semantics and
// checks that no physical frames leak on either host.
func TestFrameConservation(t *testing.T) {
	for _, scheme := range []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			tb, err := NewTestbed(TestbedConfig{Buffering: scheme})
			if err != nil {
				t.Fatal(err)
			}
			sender := tb.A.Genie.NewProcess()
			receiver := tb.B.Genie.NewProcess()
			const length = 3 * 4096
			srcVA, _ := sender.Brk(length)
			dstVA, _ := receiver.Brk(length)
			if err := sender.Write(srcVA, bytes.Repeat([]byte{9}, length)); err != nil {
				t.Fatal(err)
			}

			runRound := func(round int) {
				for _, sem := range AllSemantics() {
					var sva, dva vm.Addr = srcVA, dstVA
					var srcRegion *vm.Region
					if sem.SystemAllocated() {
						r, err := sender.AllocIOBuffer(length)
						if err != nil {
							t.Fatal(err)
						}
						if err := sender.Write(r.Start(), bytes.Repeat([]byte{9}, length)); err != nil {
							t.Fatal(err)
						}
						sva = r.Start()
						srcRegion = r
					}
					_, in, err := tb.Transfer(sender, receiver, 1, sem, sva, dva, length)
					if err != nil {
						t.Fatalf("round %d %v: %v", round, sem, err)
					}
					// Release both sides' system-allocated buffers: the
					// receiver's input region, and the sender's cached
					// (moved-out) region for the cached semantics.
					if in.Region != nil {
						if err := receiver.FreeIOBuffer(in.Region); err != nil {
							t.Fatal(err)
						}
					}
					if srcRegion != nil && sem != Move && !srcRegion.Removed() {
						if err := sender.Space().RemoveRegion(srcRegion); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			// Warm-up faults in heap pages and settles steady state.
			runRound(-1)
			tb.Run()
			freeA := tb.A.Phys.FreeFrames()
			freeB := tb.B.Phys.FreeFrames()
			for round := 0; round < 5; round++ {
				runRound(round)
			}
			tb.Run()
			if got := tb.A.Phys.FreeFrames(); got != freeA {
				t.Errorf("sender frames leaked: %d -> %d", freeA, got)
			}
			if got := tb.B.Phys.FreeFrames(); got != freeB {
				t.Errorf("receiver frames leaked: %d -> %d", freeB, got)
			}
			if err := tb.A.Phys.CheckInvariants(); err != nil {
				t.Error(err)
			}
			if err := tb.B.Phys.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRegionRemovedDuringInput: the application removes its cached input
// region mid-input; Genie must complete the input into a fresh region
// with the data intact (Section 6.2.1 region check).
func TestRegionRemovedDuringInput(t *testing.T) {
	tb, sender, receiver := newEarlyTestbed(t)
	srcVA, _ := sender.Brk(4096)
	payload := bytes.Repeat([]byte{0x3A}, 4096)
	if err := sender.Write(srcVA, payload); err != nil {
		t.Fatal(err)
	}
	in, err := receiver.Input(1, EmulatedWeakMove, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// The app removes the region the kernel prepared for this input.
	if err := receiver.Space().RemoveRegion(in.region); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Output(1, EmulatedWeakMove, mustIOBuf(t, sender, payload), 4096); err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if in.Err != nil {
		t.Fatal(in.Err)
	}
	if tb.B.Genie.Stats().RegionsRemapped != 1 {
		t.Fatal("region check did not remap")
	}
	got := make([]byte, 4096)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost across region remap")
	}
}

func mustIOBuf(t *testing.T, p *Process, data []byte) vm.Addr {
	t.Helper()
	r, err := p.AllocIOBuffer(len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(r.Start(), data); err != nil {
		t.Fatal(err)
	}
	return r.Start()
}

// TestPingPongRegionCaching: bidirectional traffic with emulated move
// reuses regions via the cache after warm-up, and output data passes
// correctly in both directions.
func TestPingPongRegionCaching(t *testing.T) {
	tb, a, b := newEarlyTestbed(t)
	const length = 2 * 4096
	// Warm-up: A sends to B; B gets a region.
	srcA := mustIOBuf(t, a, bytes.Repeat([]byte{1}, length))
	_, in1, err := tb.Transfer(a, b, 1, EmulatedMove, srcA, 0, length)
	if err != nil {
		t.Fatal(err)
	}
	// B sends that region back; A (whose own region was cached by its
	// output... actually consumed) receives into a fresh region.
	if err := b.Write(in1.Addr, bytes.Repeat([]byte{2}, length)); err != nil {
		t.Fatal(err)
	}
	_, in2, err := tb.Transfer(b, a, 2, EmulatedMove, in1.Region.Start(), 0, length)
	if err != nil {
		t.Fatal(err)
	}
	// Third leg: A sends again; its cached (hidden) region from leg 1 is
	// A's srcA region, which was enqueued at dispose — a new input on A
	// would reuse it.
	if err := a.Write(in2.Addr, bytes.Repeat([]byte{3}, length)); err != nil {
		t.Fatal(err)
	}
	_, in3, err := tb.Transfer(a, b, 1, EmulatedMove, in2.Region.Start(), 0, length)
	if err != nil {
		t.Fatal(err)
	}
	// B's first region (in1.Region) was consumed by B's own output in
	// leg 2 and enqueued; leg 3's input on B must have reused it.
	if in3.Region != in1.Region {
		t.Error("region cache not reused across ping-pong")
	}
	if tb.B.Genie.Stats().RegionsReused == 0 {
		t.Error("no region cache hits recorded")
	}
	got := make([]byte, length)
	if err := b.Read(in3.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{3}, length)) {
		t.Error("third-leg data wrong")
	}
}
