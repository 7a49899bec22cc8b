package core

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/vm"
)

func TestGatherOutput(t *testing.T) {
	for _, sem := range []Semantics{Copy, EmulatedCopy, Share, EmulatedShare} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
			if err != nil {
				t.Fatal(err)
			}
			sender := tb.A.Genie.NewProcess()
			receiver := tb.B.Genie.NewProcess()

			// A protocol header in one buffer, the payload in another.
			header := []byte("HDR{seq=42,len=8192}")
			payload := bytes.Repeat([]byte{0xF1}, 8192)
			hva, _ := sender.Brk(4096)
			pva, _ := sender.Brk(8192)
			if err := sender.Write(hva, header); err != nil {
				t.Fatal(err)
			}
			if err := sender.Write(pva, payload); err != nil {
				t.Fatal(err)
			}
			total := len(header) + len(payload)
			dst, _ := receiver.Brk(total + 4096)

			in, err := receiver.Input(1, sem, dst, total)
			if err != nil {
				t.Fatal(err)
			}
			out, err := sender.OutputV(1, sem, []Segment{
				{hva, len(header)}, {pva, len(payload)},
			})
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if out.Err != nil || in.Err != nil {
				t.Fatal(out.Err, in.Err)
			}
			got := make([]byte, total)
			if err := receiver.Read(in.Addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(header)], header) || !bytes.Equal(got[len(header):], payload) {
				t.Fatal("gathered datagram corrupted")
			}
		})
	}
}

// TestGatherIntegrity: with emulated copy, overwriting any segment after
// OutputV returns must not affect the transmitted datagram.
func TestGatherIntegrity(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	const segLen = 4096
	a, _ := sender.Brk(segLen)
	b, _ := sender.Brk(segLen)
	origA := bytes.Repeat([]byte{0x0A}, segLen)
	origB := bytes.Repeat([]byte{0x0B}, segLen)
	if err := sender.Write(a, origA); err != nil {
		t.Fatal(err)
	}
	if err := sender.Write(b, origB); err != nil {
		t.Fatal(err)
	}
	dst, _ := receiver.Brk(2 * segLen)
	in, err := receiver.Input(1, EmulatedCopy, dst, 2*segLen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.OutputV(1, EmulatedCopy, []Segment{{a, segLen}, {b, segLen}}); err != nil {
		t.Fatal(err)
	}
	// Clobber both segments before the frame serializes.
	if err := sender.Write(a, bytes.Repeat([]byte{0xFF}, segLen)); err != nil {
		t.Fatal(err)
	}
	if err := sender.Write(b, bytes.Repeat([]byte{0xFF}, segLen)); err != nil {
		t.Fatal(err)
	}
	tb.Run()
	if in.Err != nil {
		t.Fatal(in.Err)
	}
	got := make([]byte, 2*segLen)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:segLen], origA) || !bytes.Equal(got[segLen:], origB) {
		t.Fatal("gather output lost integrity under overwrite (TCOW per segment broken)")
	}
	if tb.A.Sys.Stats().TCOWCopies != 2 {
		t.Errorf("TCOW copies = %d, want 2", tb.A.Sys.Stats().TCOWCopies)
	}
}

func TestGatherValidation(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	p := tb.A.Genie.NewProcess()
	va, _ := p.Brk(4096)
	if _, err := p.OutputV(1, Move, []Segment{{va, 10}}); err == nil {
		t.Error("system-allocated gather accepted")
	}
	if _, err := p.OutputV(1, Copy, nil); err == nil {
		t.Error("empty gather list accepted")
	}
	if _, err := p.OutputV(1, Copy, []Segment{{va, 0}}); err == nil {
		t.Error("zero-length segment accepted")
	}
	if _, err := p.OutputV(1, Semantics(77), []Segment{{va, 8}}); err == nil {
		t.Error("bogus semantics accepted")
	}
	// Single-segment gather degrades to plain Output.
	r, _ := tb.B.Genie.NewProcess().Input(1, Copy, mustBrk(t, tb.B.Genie.NewProcess(), 4096), 8)
	_ = r
	out, err := p.OutputV(1, Copy, []Segment{{va, 8}})
	if err != nil || out.Len != 8 {
		t.Errorf("single-segment gather: %v %v", out, err)
	}
}

func mustBrk(t *testing.T, p *Process, n int) vm.Addr {
	t.Helper()
	va, err := p.Brk(n)
	if err != nil {
		t.Fatal(err)
	}
	return va
}

// TestGatherShortConversion: a short gathered datagram converts to copy
// semantics like any other short output.
func TestGatherShortConversion(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	hva, _ := sender.Brk(4096)
	pva, _ := sender.Brk(4096)
	if err := sender.Write(hva, []byte("hd")); err != nil {
		t.Fatal(err)
	}
	if err := sender.Write(pva, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	dst, _ := receiver.Brk(4096)
	in, err := receiver.Input(1, EmulatedCopy, dst, 9)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sender.OutputV(1, EmulatedCopy, []Segment{{hva, 2}, {pva, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converted() {
		t.Error("9-byte gather not converted to copy semantics")
	}
	tb.Run()
	got := make([]byte, 9)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hdpayload" {
		t.Fatalf("got %q", got)
	}
}

// TestGatherChecksum: a checksummed gathered datagram carries its
// trailer and verifies intact at the receiver, under both checksum
// modes and both semantics the modes cover.
func TestGatherChecksum(t *testing.T) {
	const seg = 4096
	for _, mode := range []ChecksumMode{ChecksumSeparate, ChecksumIntegrated} {
		for _, sem := range []Semantics{Copy, EmulatedCopy} {
			t.Run(mode.String()+"/"+sem.String(), func(t *testing.T) {
				tb, tx, rx := checksumTestbed(t, mode)
				a, b := mustBrk(t, tx, seg), mustBrk(t, tx, seg)
				want := make([]byte, 2*seg)
				for i := range want {
					want[i] = byte(i*7 + 1)
				}
				if err := tx.Write(a, want[:seg]); err != nil {
					t.Fatal(err)
				}
				if err := tx.Write(b, want[seg:]); err != nil {
					t.Fatal(err)
				}
				in, err := rx.Input(1, sem, mustBrk(t, rx, 2*seg), 2*seg)
				if err != nil {
					t.Fatal(err)
				}
				out, err := tx.OutputV(1, sem, []Segment{{a, seg}, {b, seg}})
				if err != nil {
					t.Fatal(err)
				}
				tb.Run()
				if out.Err != nil || in.Err != nil {
					t.Fatal(out.Err, in.Err)
				}
				got := make([]byte, 2*seg)
				if err := rx.Read(in.Addr, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("checksummed gathered datagram corrupted")
				}
			})
		}
	}
}

// TestGatherRollback: a gather list whose second segment is unmapped
// fails, and the references and wiring already taken on the first
// segment are dropped — once the process exits, its frames are freed at
// once rather than deferred behind leaked I/O references.
func TestGatherRollback(t *testing.T) {
	const seg = 2 * 4096
	for _, sem := range []Semantics{EmulatedCopy, Share, EmulatedShare} {
		t.Run(sem.String(), func(t *testing.T) {
			tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
			if err != nil {
				t.Fatal(err)
			}
			p := tb.A.Genie.NewProcess()
			va := mustBrk(t, p, seg)
			if err := p.Write(va, make([]byte, seg)); err != nil {
				t.Fatal(err)
			}
			unmapped := va + 1<<30
			if _, err := p.OutputV(1, sem, []Segment{{va, seg}, {unmapped, 4096}}); err == nil {
				t.Fatal("gather with an unmapped segment accepted")
			}
			p.Exit()
			pm := tb.A.Phys
			if free, want := pm.FreeFrames(), pm.NumFrames()-tb.A.Genie.Config().KernelPoolPages; free != want {
				t.Errorf("%d frames free after exit, want %d", free, want)
			}
			if d := pm.Stats().DeferredFrees; d != 0 {
				t.Errorf("%d deferred frees: the failed gather leaked references", d)
			}
			if err := pm.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}
