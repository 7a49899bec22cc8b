package netsim

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

const pageSize = 4096

// hostBuffer is a simple DMATarget for tests.
type hostBuffer struct{ data []byte }

func (h *hostBuffer) DMAWrite(off int, data mem.Buf) { data.ReadAt(h.data[off:off+data.Len()], 0) }
func (h *hostBuffer) Len() int                       { return len(h.data) }

func newPair(t *testing.T, cfgA, cfgB NICConfig) (*sim.Engine, *NIC, *NIC) {
	t.Helper()
	eng := sim.New()
	a, err := NewNIC(eng, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNIC(eng, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	NewLink(eng, 0.0598, 130, a, b)
	return eng, a, b
}

func TestEarlyDemuxDelivery(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})

	buf := &hostBuffer{data: make([]byte, 64)}
	b.PostInput(7, buf)

	var got Packet
	var delivered bool
	b.SetRxHandler(func(p Packet) { got = p; delivered = true })

	payload := []byte("early demultiplexed frame")
	if err := a.TransmitDatagramBuf(7, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if !delivered || !got.Direct || got.Port != 7 {
		t.Fatalf("packet = %+v", got)
	}
	if !bytes.Equal(buf.data[:len(payload)], payload) {
		t.Fatal("payload not DMAed into posted buffer")
	}
	wantT := 0.0598*float64(len(payload)) + 130
	if math.Abs(float64(got.Arrival)-wantT) > 1e-9 {
		t.Fatalf("arrival = %v, want %v", got.Arrival, wantT)
	}
	if b.PostedInputs(7) != 0 {
		t.Fatal("posted buffer not consumed")
	}
}

func TestEarlyDemuxPortIsolation(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	buf1 := &hostBuffer{data: make([]byte, 16)}
	buf2 := &hostBuffer{data: make([]byte, 16)}
	b.PostInput(1, buf1)
	b.PostInput(2, buf2)
	b.SetRxHandler(func(Packet) {})
	if err := a.TransmitDatagramBuf(2, mem.BufBytes([]byte("to-port-2")), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if string(buf2.data[:9]) != "to-port-2" {
		t.Fatal("port 2 buffer not filled")
	}
	if buf1.data[0] != 0 {
		t.Fatal("port 1 buffer touched")
	}
	if b.PostedInputs(1) != 1 {
		t.Fatal("port 1 posting consumed by port 2 traffic")
	}
}

func TestEarlyDemuxDropsWithoutPosting(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	b.SetRxHandler(func(Packet) { t.Fatal("unexpected delivery") })
	if err := a.TransmitDatagramBuf(9, mem.BufBytes([]byte("orphan")), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", b.Stats().Dropped)
	}
}

func TestEarlyDemuxFallsBackToPool(t *testing.T) {
	pm := mem.New(16, pageSize)
	pool, err := NewOverlayPool(pm, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux, Pool: pool})
	var got Packet
	b.SetRxHandler(func(p Packet) { got = p })
	if err := a.TransmitDatagramBuf(3, mem.BufBytes([]byte("unposted")), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got.Direct || len(got.Overlay) != 1 {
		t.Fatalf("fallback packet = %+v", got)
	}
	if string(got.Overlay[0].Data()[:8]) != "unposted" {
		t.Fatal("payload not in overlay page")
	}
}

func TestPooledDelivery(t *testing.T) {
	pm := mem.New(32, pageSize)
	pool, err := NewOverlayPool(pm, 20)
	if err != nil {
		t.Fatal(err)
	}
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: Pooled, Pool: pool, OverlayOff: 40})
	var got Packet
	b.SetRxHandler(func(p Packet) { got = p })

	payload := bytes.Repeat([]byte{0xC3}, pageSize+100)
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()

	if got.OverlayOff != 40 {
		t.Fatalf("overlay off = %d, want 40", got.OverlayOff)
	}
	// 40 + 4196 bytes = 2 pages.
	if len(got.Overlay) != 2 {
		t.Fatalf("overlay pages = %d, want 2", len(got.Overlay))
	}
	if got.Overlay[0].Data()[40] != 0xC3 || got.Overlay[1].Data()[0] != 0xC3 {
		t.Fatal("payload misplaced in overlay pages")
	}
	if pool.Free() != 18 {
		t.Fatalf("pool free = %d, want 18", pool.Free())
	}
	pool.Put(got.Overlay...)
	if pool.Free() != 20 {
		t.Fatal("pool not restored by Put")
	}
}

func TestPooledDepletionDrops(t *testing.T) {
	pm := mem.New(8, pageSize)
	pool, err := NewOverlayPool(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: Pooled, Pool: pool})
	b.SetRxHandler(func(Packet) {})
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 3*pageSize)), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	s := b.Stats()
	if s.PoolFailures != 1 || s.Dropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOutboardDelivery(t *testing.T) {
	ob := NewOutboardMemory(1 << 20)
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: OutboardBuffering, Outboard: ob})
	var got Packet
	b.SetRxHandler(func(p Packet) { got = p })
	payload := []byte("staged in outboard memory")
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got.Outboard == nil {
		t.Fatal("no outboard buffer")
	}
	host := &hostBuffer{data: make([]byte, len(payload))}
	got.Outboard.DMAToHost(host)
	if !bytes.Equal(host.data, payload) {
		t.Fatal("outboard DMA corrupted payload")
	}
	used := (1 << 20) - ob.Free()
	if used != len(payload) {
		t.Fatalf("outboard used = %d", used)
	}
	got.Outboard.Free()
	if ob.Free() != 1<<20 {
		t.Fatal("outboard space not reclaimed")
	}
}

func TestOutboardExhaustion(t *testing.T) {
	ob := NewOutboardMemory(10)
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: OutboardBuffering, Outboard: ob})
	b.SetRxHandler(func(Packet) {})
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 100)), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Stats().Dropped != 1 {
		t.Fatal("oversized frame not dropped")
	}
}

func TestTransmitSerialization(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	var arrivals []sim.Time
	b.SetRxHandler(func(p Packet) { arrivals = append(arrivals, p.Arrival) })
	for i := 0; i < 3; i++ {
		buf := &hostBuffer{data: make([]byte, 1000)}
		b.PostInput(1, buf)
	}
	for i := 0; i < 3; i++ {
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 1000)), nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	wire := 0.0598 * 1000
	// Frames serialize on the wire: arrivals spaced by wire time, each
	// delivered wire+fixed after its start.
	for i, at := range arrivals {
		want := wire*float64(i+1) + 130
		if math.Abs(float64(at)-want) > 1e-6 {
			t.Fatalf("arrival[%d] = %v, want %v", i, at, want)
		}
	}
}

func TestTransmitErrors(t *testing.T) {
	eng := sim.New()
	n, err := NewNIC(eng, NICConfig{Name: "lone", Buffering: EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.TransmitDatagramBuf(1, mem.BufBytes([]byte("x")), nil); err == nil {
		t.Fatal("transmit without link succeeded")
	}
	_, a, _ := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, MaxFrame+1)), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestNICConfigValidation(t *testing.T) {
	eng := sim.New()
	if _, err := NewNIC(eng, NICConfig{Buffering: Pooled}); err == nil {
		t.Fatal("pooled NIC without pool accepted")
	}
	if _, err := NewNIC(eng, NICConfig{Buffering: OutboardBuffering}); err == nil {
		t.Fatal("outboard NIC without memory accepted")
	}
	if _, err := NewNIC(eng, NICConfig{Buffering: InputBuffering(99)}); err == nil {
		t.Fatal("bogus buffering accepted")
	}
}

func TestOnSentOrdering(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	buf := &hostBuffer{data: make([]byte, 16)}
	b.PostInput(1, buf)
	var sentAt, rxAt sim.Time
	b.SetRxHandler(func(p Packet) { rxAt = p.Arrival })
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 16)), func() { sentAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if sentAt >= rxAt {
		t.Fatalf("onSent at %v not before delivery at %v", sentAt, rxAt)
	}
}

func TestOverlayPoolRefillAndDestroy(t *testing.T) {
	pm := mem.New(16, pageSize)
	pool, err := NewOverlayPool(pm, 4)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := pool.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	// Move semantics consumes the pages and refills the pool.
	if err := pool.Refill(3); err != nil {
		t.Fatal(err)
	}
	if pool.Free() != 4 {
		t.Fatalf("free = %d, want 4 after refill", pool.Free())
	}
	_ = frames
	pool.Destroy()
	if pm.FreeFrames() != 16-3 {
		// 3 consumed frames still out (owned by the "application").
		t.Fatalf("free frames = %d, want 13", pm.FreeFrames())
	}
}

func TestOverlayPoolAllocFailure(t *testing.T) {
	pm := mem.New(2, pageSize)
	if _, err := NewOverlayPool(pm, 5); err == nil {
		t.Fatal("pool larger than physical memory accepted")
	}
	if pm.FreeFrames() != 2 {
		t.Fatal("failed pool construction leaked frames")
	}
}

func TestOutboardDoubleFreePanics(t *testing.T) {
	ob := NewOutboardMemory(100)
	buf, err := ob.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	buf.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	buf.Free()
}

func TestCorruptNextTx(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	buf1 := &hostBuffer{data: make([]byte, 16)}
	buf2 := &hostBuffer{data: make([]byte, 16)}
	b.PostInput(1, buf1)
	b.PostInput(1, buf2)
	b.SetRxHandler(func(Packet) {})

	payload := bytes.Repeat([]byte{0xAA}, 16)
	a.CorruptNextTx(5)
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	// Single-shot: the second frame is clean.
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if buf1.data[5] == 0xAA {
		t.Fatal("armed corruption did not fire")
	}
	if buf1.data[4] != 0xAA || buf1.data[6] != 0xAA {
		t.Fatal("corruption spread beyond the armed byte")
	}
	if !bytes.Equal(buf2.data, payload) {
		t.Fatal("corruption not single-shot")
	}
	// The sender's own payload slice is never mutated.
	if payload[5] != 0xAA {
		t.Fatal("fault injection mutated the caller's buffer")
	}
	// Out-of-range offsets are ignored.
	a.CorruptNextTx(999)
	buf3 := &hostBuffer{data: make([]byte, 16)}
	b.PostInput(1, buf3)
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(buf3.data, payload) {
		t.Fatal("out-of-range corruption mangled frame")
	}
}

// Property: any payload survives the early-demux path byte for byte.
func TestPropertyPayloadIntegrity(t *testing.T) {
	prop := func(payload []byte) bool {
		if len(payload) == 0 || len(payload) > MaxFrame {
			return true
		}
		eng := sim.New()
		a, _ := NewNIC(eng, NICConfig{Name: "a", Buffering: EarlyDemux})
		b, _ := NewNIC(eng, NICConfig{Name: "b", Buffering: EarlyDemux})
		NewLink(eng, 0.05, 100, a, b)
		buf := &hostBuffer{data: make([]byte, len(payload))}
		b.PostInput(1, buf)
		b.SetRxHandler(func(Packet) {})
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
			return false
		}
		eng.Run()
		return bytes.Equal(buf.data, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the overlay pool conserves pages across any Get/Put sequence.
func TestPropertyPoolConservation(t *testing.T) {
	prop := func(ops []uint8) bool {
		pm := mem.New(64, pageSize)
		pool, err := NewOverlayPool(pm, 16)
		if err != nil {
			return false
		}
		var out [][]*mem.Frame
		for _, op := range ops {
			if op%2 == 0 {
				n := int(op/2)%4 + 1
				if frames, err := pool.Get(n); err == nil {
					out = append(out, frames)
				}
			} else if len(out) > 0 {
				pool.Put(out[len(out)-1]...)
				out = out[:len(out)-1]
			}
		}
		held := 0
		for _, frames := range out {
			held += len(frames)
		}
		return pool.Free()+held == 16
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
