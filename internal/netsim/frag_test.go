package netsim

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func newFragPair(t *testing.T, mtu int, rxCfg NICConfig) (*sim.Engine, *NIC, *NIC) {
	t.Helper()
	eng := sim.New()
	a, err := NewNIC(eng, NICConfig{Name: "tx", Buffering: EarlyDemux, MTU: mtu})
	if err != nil {
		t.Fatal(err)
	}
	rxCfg.Name = "rx"
	b, err := NewNIC(eng, rxCfg)
	if err != nil {
		t.Fatal(err)
	}
	NewLink(eng, 0.0598, 130, a, b)
	return eng, a, b
}

func TestFragmentationEarlyDemux(t *testing.T) {
	eng, a, b := newFragPair(t, 9180, NICConfig{Buffering: EarlyDemux, MTU: 9180})
	const n = 30000
	buf := &hostBuffer{data: make([]byte, n)}
	b.PostInput(3, buf)
	var got Packet
	deliveries := 0
	b.SetRxHandler(func(p Packet) { got = p; deliveries++ })

	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := a.TransmitDatagramBuf(3, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want exactly 1 (reassembled)", deliveries)
	}
	if !got.Direct || got.Length != n {
		t.Fatalf("packet = %+v", got)
	}
	if !bytes.Equal(buf.data, payload) {
		t.Fatal("fragmented payload corrupted")
	}
	if a.MTU() != 9180 {
		t.Fatal("MTU accessor broken")
	}
}

func TestFragmentationAddsOnlyTrailerTime(t *testing.T) {
	// Same payload with and without fragmentation: the fragmented
	// transfer costs one extra cell of wire time per extra fragment.
	const n = 30000
	run := func(mtu int) sim.Time {
		eng, a, b := newFragPair(t, mtu, NICConfig{Buffering: EarlyDemux})
		buf := &hostBuffer{data: make([]byte, n)}
		b.PostInput(1, buf)
		var at sim.Time
		b.SetRxHandler(func(p Packet) { at = p.Arrival })
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, n)), nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return at
	}
	whole := run(0)
	fragged := run(9180) // 4 fragments -> 3 trailer cells
	extra := float64(fragged - whole)
	want := 3 * 0.0598 * 48
	if math.Abs(extra-want) > 1e-6 {
		t.Fatalf("fragmentation overhead = %.3f us, want %.3f", extra, want)
	}
}

func TestFragmentationPooled(t *testing.T) {
	pm := mem.New(32, pageSize)
	pool, err := NewOverlayPool(pm, 16)
	if err != nil {
		t.Fatal(err)
	}
	eng, a, b := newFragPair(t, 4096, NICConfig{Buffering: Pooled, Pool: pool, OverlayOff: 40})
	var got Packet
	b.SetRxHandler(func(p Packet) { got = p })
	const n = 3*4096 + 100
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got.Overlay == nil || got.Length != n || got.OverlayOff != 40 {
		t.Fatalf("packet = %+v", got)
	}
	gathered := make([]byte, 0, n)
	off := 40
	for _, f := range got.Overlay {
		take := min(len(f.Data())-off, n-len(gathered))
		gathered = append(gathered, f.Data()[off:off+take]...)
		off = 0
	}
	if !bytes.Equal(gathered, payload) {
		t.Fatal("pooled reassembly corrupted payload")
	}
	pool.Put(got.Overlay...)
}

func TestFragmentationOutboard(t *testing.T) {
	ob := NewOutboardMemory(1 << 20)
	eng, a, b := newFragPair(t, 2048, NICConfig{Buffering: OutboardBuffering, Outboard: ob})
	var got Packet
	b.SetRxHandler(func(p Packet) { got = p })
	const n = 10000
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got.Outboard == nil {
		t.Fatal("no outboard staging")
	}
	if !bytes.Equal(got.Outboard.Bytes(), payload) {
		t.Fatal("outboard reassembly corrupted payload")
	}
	got.Outboard.Free()
}

func TestFragmentationDropWithoutPosting(t *testing.T) {
	eng, a, b := newFragPair(t, 1000, NICConfig{Buffering: EarlyDemux})
	b.SetRxHandler(func(Packet) { t.Fatal("unexpected delivery") })
	if err := a.TransmitDatagramBuf(5, mem.BufBytes(make([]byte, 5000)), nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if b.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1 datagram (not per fragment)", b.Stats().Dropped)
	}
}

func TestFragmentationOnSentFiresOnce(t *testing.T) {
	eng, a, b := newFragPair(t, 1000, NICConfig{Buffering: EarlyDemux})
	buf := &hostBuffer{data: make([]byte, 5000)}
	b.PostInput(1, buf)
	b.SetRxHandler(func(Packet) {})
	sent := 0
	if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 5000)), func() { sent++ }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if sent != 1 {
		t.Fatalf("onSent fired %d times, want 1", sent)
	}
}

// Property: any (payload, MTU) combination survives fragmentation and
// reassembly byte for byte under early demultiplexing.
func TestPropertyFragmentationIntegrity(t *testing.T) {
	prop := func(seed int64, sizeRaw, mtuRaw uint16) bool {
		size := int(sizeRaw)%20000 + 1
		mtu := int(mtuRaw)%4096 + 64
		eng := sim.New()
		a, _ := NewNIC(eng, NICConfig{Name: "a", Buffering: EarlyDemux, MTU: mtu})
		b, _ := NewNIC(eng, NICConfig{Name: "b", Buffering: EarlyDemux})
		NewLink(eng, 0.05, 100, a, b)
		buf := &hostBuffer{data: make([]byte, size)}
		b.PostInput(1, buf)
		delivered := false
		b.SetRxHandler(func(p Packet) { delivered = p.Length == size })
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(int(seed) + i*13)
		}
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
			return false
		}
		eng.Run()
		return delivered && bytes.Equal(buf.data, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
