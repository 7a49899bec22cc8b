package netsim

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/mem"
)

func newInjector(t *testing.T, spec faults.Spec) *faults.Injector {
	t.Helper()
	inj, err := faults.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestOverlayPoolRefillUnderExhaustion: Refill draws from physical
// memory and must surface exhaustion as ErrOutOfMemory (leaving the
// pool usable), not panic or overfill; injected transient allocation
// failures behave the same way and clear when the injector disarms.
func TestOverlayPoolRefillUnderExhaustion(t *testing.T) {
	pm := mem.New(4, pageSize)
	pool, err := NewOverlayPool(pm, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Consume two pages as a move-family input would (they now belong to
	// an application region and will not come back via Put).
	if _, err := pool.Get(2); err != nil {
		t.Fatal(err)
	}
	pool.ConsumedBy(2)
	// One phys frame left: the first refill page succeeds, the second
	// exhausts physical memory.
	if err := pool.Refill(2); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("refill on exhausted phys: err = %v, want ErrOutOfMemory", err)
	}
	if pool.Free() != 2 {
		t.Fatalf("pool free = %d after partial refill, want 2", pool.Free())
	}
	// Injected allocation failure: same error surface, recovers on the
	// next attempt once the fault clears.
	pm2 := mem.New(8, pageSize)
	pool2, err := NewOverlayPool(pm2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool2.Get(1); err != nil {
		t.Fatal(err)
	}
	pool2.ConsumedBy(1)
	inj := newInjector(t, faults.Spec{Seed: 1, AllocFail: 0.9})
	pm2.SetAllocFault(inj.FailAlloc)
	sawFailure := false
	for i := 0; i < 50 && pool2.Free() != 2; i++ {
		if err := pool2.Refill(1); err != nil {
			if !errors.Is(err, mem.ErrOutOfMemory) {
				t.Fatalf("injected failure surfaced as %v, want ErrOutOfMemory", err)
			}
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("90% alloc-fail rate never fired across 50 refills")
	}
	if pool2.Free() != 2 {
		t.Fatalf("pool never recovered: free = %d, want 2", pool2.Free())
	}
}

// TestDropAccounting covers every receive() drop branch: each dropped
// frame must count exactly once in Stats.Dropped, and staging resources
// grabbed before the drop must be returned.
func TestDropAccounting(t *testing.T) {
	t.Run("early demux, nothing posted, no pool", func(t *testing.T) {
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: EarlyDemux})
		b.SetRxHandler(func(Packet) { t.Error("delivered without a posted buffer") })
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 100)), nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if st := b.Stats(); st.Dropped != 1 || st.Delivered != 0 || st.RxFrames != 1 {
			t.Fatalf("stats = %+v", st)
		}
	})

	t.Run("pooled, pool exhausted", func(t *testing.T) {
		pm := mem.New(8, pageSize)
		pool, err := NewOverlayPool(pm, 1)
		if err != nil {
			t.Fatal(err)
		}
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: Pooled, Pool: pool})
		var delivered int
		b.SetRxHandler(func(p Packet) { delivered++ }) // holds overlay pages forever
		for i := 0; i < 2; i++ {
			if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 100)), nil); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		st := b.Stats()
		// Without an injector there is no backpressure: the second frame
		// drops immediately, exactly as the paper's adapters behave.
		if delivered != 1 || st.Dropped != 1 || st.PoolFailures != 1 || st.Retried != 0 {
			t.Fatalf("delivered %d, stats %+v", delivered, st)
		}
		if st.RxFrames != st.Delivered+st.Dropped {
			t.Fatalf("accounting broken: %+v", st)
		}
	})

	t.Run("outboard exhausted", func(t *testing.T) {
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: OutboardBuffering, Outboard: NewOutboardMemory(128)})
		var delivered int
		b.SetRxHandler(func(p Packet) { delivered++ }) // never frees the staging buffer
		for i := 0; i < 2; i++ {
			if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 100)), nil); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		if st := b.Stats(); delivered != 1 || st.Dropped != 1 || st.RxFrames != 2 {
			t.Fatalf("delivered %d, stats %+v", delivered, st)
		}
	})

	t.Run("no protocol stack attached", func(t *testing.T) {
		pm := mem.New(8, pageSize)
		pool, err := NewOverlayPool(pm, 2)
		if err != nil {
			t.Fatal(err)
		}
		eng, a, b := newPair(t,
			NICConfig{Name: "tx", Buffering: EarlyDemux},
			NICConfig{Name: "rx", Buffering: Pooled, Pool: pool})
		// No SetRxHandler: the frame stages into the pool, then drops.
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 100)), nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if st := b.Stats(); st.Dropped != 1 || st.Delivered != 0 {
			t.Fatalf("stats = %+v", st)
		}
		if pool.Free() != pool.Total() {
			t.Fatalf("rx-less drop leaked overlay pages: %d/%d free", pool.Free(), pool.Total())
		}
	})
}

// TestWireFaultCounters: injected wire faults must be counted on the
// transmitting NIC and satisfy the conservation equation
// TxFrames - WireDrops + WireDups == peer RxFrames.
func TestWireFaultCounters(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	inj := newInjector(t, faults.Spec{Seed: 2, Drop: 0.3, Duplicate: 0.3, Reorder: 0.3, Corrupt: 0.3})
	a.SetFaultInjector(inj)
	b.SetRxHandler(func(Packet) {})
	const frames = 40
	for i := 0; i < frames; i++ {
		buf := &hostBuffer{data: make([]byte, 64)}
		b.PostInput(1, buf)
		b.PostInput(1, buf) // second posting absorbs an injected duplicate
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 64)), nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	st := a.Stats()
	if st.WireDrops == 0 || st.WireDups == 0 || st.WireReorders == 0 || st.WireCorrupts == 0 {
		t.Fatalf("some fault classes never fired over %d frames: %+v", frames, st)
	}
	if want, got := st.TxFrames-st.WireDrops+st.WireDups, b.Stats().RxFrames; want != got {
		t.Fatalf("wire conservation: expected %d arrivals, receiver saw %d", want, got)
	}
	fired := inj.Stats()
	if fired.Drops != st.WireDrops || fired.Duplicates != st.WireDups ||
		fired.Reorders != st.WireReorders || fired.Corruptions != st.WireCorrupts {
		t.Fatalf("NIC counters diverge from injector decisions: nic %+v, injector %+v", st, fired)
	}
}

// TestPayloadCorruptionChangesBytes: an injected corruption must
// actually mangle the delivered bytes (the checksum layer upstream
// depends on it).
func TestPayloadCorruptionChangesBytes(t *testing.T) {
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: EarlyDemux})
	a.SetFaultInjector(newInjector(t, faults.Spec{Seed: 3, Corrupt: 0.9}))
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	corrupted := 0
	for i := 0; i < 10; i++ {
		buf := &hostBuffer{data: make([]byte, 256)}
		b.PostInput(1, buf)
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(payload), nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		for j := range payload {
			if buf.data[j] != payload[j] {
				corrupted++
				break
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("90% corruption rate but every delivery matched the sent bytes")
	}
	if a.Stats().WireCorrupts == 0 {
		t.Fatal("WireCorrupts not counted")
	}
}

// TestPoolBackpressureRetry: with an injector attached, a frame that
// finds the pool exhausted is redelivered later instead of dropped, and
// succeeds once pages return.
func TestPoolBackpressureRetry(t *testing.T) {
	pm := mem.New(8, pageSize)
	pool, err := NewOverlayPool(pm, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, a, b := newPair(t,
		NICConfig{Name: "tx", Buffering: EarlyDemux},
		NICConfig{Name: "rx", Buffering: Pooled, Pool: pool})
	// A seed-only spec never fires a fault but arms the backpressure
	// path (recovery is gated on an injector being present).
	b.SetFaultInjector(newInjector(t, faults.Spec{Seed: 1}))
	delivered := 0
	var held []*mem.Frame
	b.SetRxHandler(func(p Packet) {
		delivered++
		held = append(held, p.Overlay...)
	})
	for i := 0; i < 2; i++ {
		if err := a.TransmitDatagramBuf(1, mem.BufBytes(make([]byte, 100)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Return the first frame's page while the second is still in its
	// retry loop: the deferred redelivery must then succeed.
	eng.Schedule(200, func() { pool.Put(held...); held = nil })
	eng.Run()
	st := b.Stats()
	if delivered != 2 {
		t.Fatalf("delivered %d of 2 (stats %+v)", delivered, st)
	}
	if st.Retried == 0 {
		t.Fatal("pool exhaustion with injector attached never deferred")
	}
	if st.Dropped != 0 {
		t.Fatalf("backpressure path still dropped: %+v", st)
	}
}
