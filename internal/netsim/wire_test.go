package netsim

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/mem"
)

// Wire-buffer ownership: a bytes-plane payload handed over with
// TransmitDatagramWire returns to mem's pool exactly when the receiving
// adapter has copied it out and no one else can still see it.

const wireTrials = 16

// wirePattern is the content of test payload seed: byte i is seed+7i.
func wirePattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(7*i)
	}
	return p
}

// wirePayload returns a wire buffer holding wirePattern(n, seed).
func wirePayload(n int, seed byte) []byte {
	b := mem.GetWire(n)
	copy(b, wirePattern(n, seed))
	return b
}

// poisonWire takes k buffers of n bytes' class from the pool, fills
// each to capacity with 0xA5 and puts them back: whatever the pool
// hands out next has been overwritten.
func poisonWire(n, k int) {
	held := make([][]byte, k)
	for i := range held {
		held[i] = mem.GetWire(n)
		b := held[i][:cap(held[i])]
		for j := range b {
			b[j] = 0xA5
		}
	}
	for _, b := range held {
		mem.PutWire(b)
	}
}

// inPool reports whether buf's storage is among the next k buffers the
// pool hands out for its size, putting them all back.
func inPool(buf []byte, k int) bool {
	found := false
	held := make([][]byte, k)
	for i := range held {
		held[i] = mem.GetWire(len(buf))
		found = found || &held[i][:1][0] == &buf[:1][0]
	}
	for _, b := range held {
		mem.PutWire(b)
	}
	return found
}

// poisoningTarget is a DMA target that draws and overwrites wire
// buffers of the payload's class before it copies the payload in, as a
// target that transmitted from inside its DMA would: a buffer handed
// back before its copy would arrive here poisoned.
type poisoningTarget struct{ hostBuffer }

func (p *poisoningTarget) DMAWrite(off int, data mem.Buf) {
	poisonWire(data.Len(), 8)
	p.hostBuffer.DMAWrite(off, data)
}

// sendWire transmits a wire payload of n bytes on port and poisons the
// pool right after the handoff, so a buffer returned at transmit time
// is overwritten before the receiver copies it.
func sendWire(t *testing.T, a *NIC, port, n int, seed byte) []byte {
	t.Helper()
	b := wirePayload(n, seed)
	if err := a.TransmitDatagramWire(port, mem.BufBytes(b), nil); err != nil {
		t.Fatal(err)
	}
	poisonWire(n, 8)
	return b
}

// TestWireBufferReturnedAfterCopy: an early-demultiplexed DMAWrite or a
// pooled ScatterFrames copies the payload out, after which the adapter
// hands the buffer back; the placed bytes survive overwriting whatever
// the pool hands out next. Under the race detector sync.Pool drops a
// quarter of the buffers put back, so a return need show up in only one
// of the trials.
func TestWireBufferReturnedAfterCopy(t *testing.T) {
	const n = 3000
	t.Run("early demux", func(t *testing.T) {
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: EarlyDemux})
		b.SetRxHandler(func(Packet) {})
		returned := 0
		for i := 0; i < wireTrials; i++ {
			target := &poisoningTarget{hostBuffer{data: make([]byte, n)}}
			b.PostInput(1, target)
			buf := sendWire(t, a, 1, n, byte(i))
			eng.Run()
			poisonWire(n, 8)
			if !bytes.Equal(target.data, wirePattern(n, byte(i))) {
				t.Fatalf("trial %d: placed bytes changed once the pool reused the buffer", i)
			}
			if inPool(buf, 8) {
				returned++
			}
		}
		if returned == 0 {
			t.Fatalf("no wire buffer returned to the pool in %d early-demultiplexed receives", wireTrials)
		}
	})
	t.Run("pooled", func(t *testing.T) {
		pool, err := NewOverlayPool(mem.New(8, pageSize), 4)
		if err != nil {
			t.Fatal(err)
		}
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: Pooled, Pool: pool, OverlayOff: 40})
		var got Packet
		b.SetRxHandler(func(p Packet) { got = p })
		returned := 0
		for i := 0; i < wireTrials; i++ {
			buf := sendWire(t, a, 1, n, byte(i))
			eng.Run()
			poisonWire(n, 8)
			if placed := mem.GatherFrames(got.Overlay, got.OverlayOff, n).Resolve(); !bytes.Equal(placed, wirePattern(n, byte(i))) {
				t.Fatalf("trial %d: overlay bytes changed once the pool reused the buffer", i)
			}
			pool.Put(got.Overlay...)
			if inPool(buf, 8) {
				returned++
			}
		}
		if returned == 0 {
			t.Fatalf("no wire buffer returned to the pool in %d pooled receives", wireTrials)
		}
	})
}

// TestWireBufferKeptWhenShared: an outboard adapter stages the payload
// by reference and returns it only when the staged buffer is freed; an
// injector may duplicate a frame or defer its receive, and a fragmented
// datagram is copied piecewise, and none of those ever returns the
// buffer. What the adapter staged stays intact.
func TestWireBufferKeptWhenShared(t *testing.T) {
	const n = 3000
	t.Run("outboard", func(t *testing.T) {
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: OutboardBuffering, Outboard: NewOutboardMemory(1 << 20)})
		var got Packet
		b.SetRxHandler(func(p Packet) { got = p })
		returned := 0
		for i := 0; i < wireTrials; i++ {
			buf := sendWire(t, a, 1, n, byte(i))
			eng.Run()
			if inPool(buf, 8) {
				t.Fatalf("trial %d: outboard receive returned a buffer it stages by reference", i)
			}
			poisonWire(n, 8)
			if !bytes.Equal(got.Outboard.Bytes(), wirePattern(n, byte(i))) {
				t.Fatalf("trial %d: staged outboard bytes changed", i)
			}
			got.Outboard.Free()
			if inPool(buf, 8) {
				returned++
			}
		}
		if returned == 0 {
			t.Fatalf("no wire buffer returned to the pool in %d freed outboard buffers", wireTrials)
		}
	})
	t.Run("duplicating sender", func(t *testing.T) {
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: EarlyDemux})
		a.SetFaultInjector(newInjector(t, faults.Spec{Seed: 3, Duplicate: 0.9}))
		b.SetRxHandler(func(Packet) {})
		for i := 0; i < wireTrials; i++ {
			first := &hostBuffer{data: make([]byte, n)}
			second := &hostBuffer{data: make([]byte, n)}
			b.PostInput(1, first)
			b.PostInput(1, second)
			buf := sendWire(t, a, 1, n, byte(i))
			eng.Run()
			if inPool(buf, 8) {
				t.Fatalf("trial %d: a frame from a sender with an injector returned its buffer", i)
			}
			if !bytes.Equal(first.data, wirePattern(n, byte(i))) {
				t.Fatalf("trial %d: first delivery bytes changed", i)
			}
			for b.PostedInputs(1) > 0 {
				b.UnpostInput(1)
			}
		}
		if a.Stats().WireDups == 0 {
			t.Fatal("no duplicate injected")
		}
	})
	t.Run("deferring receiver", func(t *testing.T) {
		pool, err := NewOverlayPool(mem.New(8, pageSize), 4)
		if err != nil {
			t.Fatal(err)
		}
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: Pooled, Pool: pool})
		b.SetFaultInjector(newInjector(t, faults.Spec{Seed: 5, PoolDeny: 0.5}))
		b.SetRxHandler(func(p Packet) { pool.Put(p.Overlay...) })
		for i := 0; i < wireTrials; i++ {
			buf := sendWire(t, a, 1, n, byte(i))
			eng.Run()
			if inPool(buf, 8) {
				t.Fatalf("trial %d: a receiver with an injector returned its buffer", i)
			}
		}
		if b.Stats().Retried == 0 {
			t.Fatal("no receive deferred")
		}
	})
	t.Run("fragmented", func(t *testing.T) {
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux, MTU: 1024},
			NICConfig{Name: "rx", Buffering: EarlyDemux})
		b.SetRxHandler(func(Packet) {})
		for i := 0; i < wireTrials; i++ {
			target := &hostBuffer{data: make([]byte, n)}
			b.PostInput(1, target)
			buf := sendWire(t, a, 1, n, byte(i))
			eng.Run()
			if inPool(buf, 8) {
				t.Fatalf("trial %d: a fragmented datagram returned its buffer", i)
			}
			if !bytes.Equal(target.data, wirePattern(n, byte(i))) {
				t.Fatalf("trial %d: reassembled bytes changed", i)
			}
		}
	})
}

// TestTransmitSliceNeverPooled: a slice passed to TransmitDatagramBuf
// stays the caller's, even when its capacity is a wire class size and
// the receiver copies it out.
func TestTransmitSliceNeverPooled(t *testing.T) {
	const n = 4096
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	b.SetRxHandler(func(Packet) {})
	for i := 0; i < wireTrials; i++ {
		payload := wirePattern(n, byte(i))
		target := &hostBuffer{data: make([]byte, n)}
		b.PostInput(1, target)
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if inPool(payload, 8) {
			t.Fatalf("trial %d: a caller's transmit slice entered the wire pool", i)
		}
		if !bytes.Equal(target.data, wirePattern(n, byte(i))) {
			t.Fatalf("trial %d: delivered bytes changed", i)
		}
	}
}
