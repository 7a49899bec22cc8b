package core

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/trace"
)

func reliablePair(t *testing.T, spec faults.Spec, sem Semantics, cfg ReliableConfig) (*Testbed, *Reliable, *Reliable) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{
		Buffering:     netsim.EarlyDemux,
		FramesPerHost: 1024,
		Faults:        spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := tb.A.Genie.NewProcess()
	b := tb.B.Genie.NewProcess()
	ra, rb, err := NewReliableChannel(a, b, 80, sem, 4096, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tb, ra, rb
}

// deliveries records what a reliable endpoint handed up: per-sequence
// counts (to catch double delivery) and payloads (to catch corruption
// leaking through).
type deliveries struct {
	counts   map[uint32]int
	payloads map[uint32][]byte
}

func collect(r *Reliable) *deliveries {
	d := &deliveries{counts: make(map[uint32]int), payloads: make(map[uint32][]byte)}
	r.OnDeliver(func(seq uint32, payload []byte) {
		d.counts[seq]++
		// The payload is borrowed for the upcall; keep a copy.
		d.payloads[seq] = append([]byte(nil), payload...)
	})
	return d
}

// checkExactlyOnce asserts the n sent payloads each arrived exactly
// once with intact bytes.
func checkExactlyOnce(t *testing.T, d *deliveries, sent map[uint32][]byte) {
	t.Helper()
	if len(d.counts) != len(sent) {
		t.Fatalf("delivered %d distinct messages, sent %d", len(d.counts), len(sent))
	}
	for seq, want := range sent {
		if n := d.counts[seq]; n != 1 {
			t.Errorf("seq %d delivered %d times", seq, n)
		}
		if got := d.payloads[seq]; !bytes.Equal(got, want) {
			t.Errorf("seq %d payload corrupted: got %d bytes %x..., want %d bytes", seq, len(got), got[:min(8, len(got))], len(want))
		}
	}
}

func sendAll(t *testing.T, r *Reliable, n int) map[uint32][]byte {
	t.Helper()
	sent := make(map[uint32][]byte)
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 256+i)
		seq, err := r.Send(payload)
		if err != nil {
			t.Fatal(err)
		}
		sent[seq] = payload
	}
	return sent
}

func TestReliableNoFaultDelivery(t *testing.T) {
	for _, sem := range []Semantics{Copy, EmulatedCopy, EmulatedShare, EmulatedWeakMove} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tb, ra, rb := reliablePair(t, faults.Spec{}, sem, ReliableConfig{})
			d := collect(rb)
			sent := sendAll(t, ra, 4)
			tb.Run()
			checkExactlyOnce(t, d, sent)
			s := ra.Stats()
			if s.Retransmits != 0 || s.GaveUp != 0 {
				t.Errorf("fault-free run retransmitted: %+v", s)
			}
			if s.Acked != 4 || ra.Outstanding() != 0 {
				t.Errorf("acked %d, outstanding %d", s.Acked, ra.Outstanding())
			}
		})
	}
}

func TestReliableDropRecovery(t *testing.T) {
	tb, ra, rb := reliablePair(t, faults.Spec{Seed: 3, Drop: 0.3}, EmulatedCopy, ReliableConfig{})
	d := collect(rb)
	sent := sendAll(t, ra, 8)
	tb.Run()
	checkExactlyOnce(t, d, sent)
	s := ra.Stats()
	if s.Retransmits == 0 {
		t.Error("30% drop rate but no retransmissions — recovery untested")
	}
	if s.GaveUp != 0 || ra.Outstanding() != 0 {
		t.Errorf("gave up %d, outstanding %d: %+v", s.GaveUp, ra.Outstanding(), s)
	}
	if fired := tb.Injector().Stats(); fired.Drops == 0 {
		t.Error("injector never fired")
	}
}

func TestReliableDuplicateSuppression(t *testing.T) {
	tb, ra, rb := reliablePair(t, faults.Spec{Seed: 5, Duplicate: 0.9}, EmulatedCopy, ReliableConfig{})
	d := collect(rb)
	sent := sendAll(t, ra, 5)
	tb.Run()
	checkExactlyOnce(t, d, sent)
	if rb.Stats().Duplicates == 0 {
		t.Error("90% duplication but receiver suppressed none")
	}
	if s := ra.Stats(); s.GaveUp != 0 || ra.Outstanding() != 0 {
		t.Errorf("sender did not quiesce: %+v", s)
	}
}

func TestReliableCorruptionRecovery(t *testing.T) {
	tb, ra, rb := reliablePair(t, faults.Spec{Seed: 7, Corrupt: 0.4}, EmulatedCopy, ReliableConfig{})
	d := collect(rb)
	sent := sendAll(t, ra, 6)
	tb.Run()
	checkExactlyOnce(t, d, sent)
	if rb.Stats().CorruptDropped+ra.Stats().CorruptDropped == 0 {
		t.Error("40% corruption but no frame failed its checksum")
	}
	if s := ra.Stats(); s.Retransmits == 0 {
		t.Error("corruption recovery requires retransmission, saw none")
	}
}

func TestReliableReorderTolerance(t *testing.T) {
	tb, ra, rb := reliablePair(t, faults.Spec{Seed: 11, Reorder: 0.5, Drop: 0.1}, EmulatedCopy, ReliableConfig{})
	d := collect(rb)
	sent := sendAll(t, ra, 8)
	tb.Run()
	checkExactlyOnce(t, d, sent)
	if s := ra.Stats(); s.GaveUp != 0 || ra.Outstanding() != 0 {
		t.Errorf("sender did not quiesce under reordering: %+v", s)
	}
}

func TestReliableGivesUpAtAttemptLimit(t *testing.T) {
	tb, ra, rb := reliablePair(t, faults.Spec{Seed: 13, Drop: 0.9}, EmulatedCopy,
		ReliableConfig{MaxAttempts: 2})
	collect(rb)
	sendAll(t, ra, 6)
	tb.Run()
	s := ra.Stats()
	if s.GaveUp == 0 {
		t.Fatalf("90%% drop with 2 attempts never gave up: %+v", s)
	}
	if ra.Outstanding() != 0 {
		t.Errorf("%d frames still pending after give-up", ra.Outstanding())
	}
}

func TestReliableDeterministicReplay(t *testing.T) {
	run := func() (ReliableStats, ReliableStats) {
		tb, ra, rb := reliablePair(t, faults.Spec{Seed: 17, Drop: 0.25, Corrupt: 0.15, Duplicate: 0.2}, EmulatedCopy, ReliableConfig{})
		d := collect(rb)
		sent := sendAll(t, ra, 6)
		tb.Run()
		checkExactlyOnce(t, d, sent)
		return ra.Stats(), rb.Stats()
	}
	sa1, sb1 := run()
	sa2, sb2 := run()
	if sa1 != sa2 || sb1 != sb2 {
		t.Errorf("same seed diverged:\n a: %+v vs %+v\n b: %+v vs %+v", sa1, sa2, sb1, sb2)
	}
}

// nameCountSink tallies trace events by name.
type nameCountSink struct{ counts map[string]int }

func (s *nameCountSink) Emit(ev trace.Event) { s.counts[ev.Name]++ }

// TestRPCOrphanAccounting is the regression test for the silently
// discarded uncorrelatable RPC responses: both orphan shapes (frame too
// short for the header, unknown correlation id) must count in
// Stats.RPCOrphans and emit rpc.orphan instants.
func TestRPCOrphanAccounting(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux, FramesPerHost: 1024})
	if err != nil {
		t.Fatal(err)
	}
	sink := &nameCountSink{counts: make(map[string]int)}
	tb.SetTracer(trace.New(sink))
	clientProc := tb.A.Genie.NewProcess()
	serverProc := tb.B.Genie.NewProcess()
	// EmulatedCopy is application-allocated, so wire lengths are exact
	// and a 3-byte frame arrives as 3 bytes, not padded past the header.
	ec, es, err := NewChannel(clientProc, serverProc, 90, EmulatedCopy, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	client := NewRPCClient(ec)
	if err := es.Send([]byte{1, 2, 3}); err != nil { // too short to correlate
		t.Fatal(err)
	}
	if err := es.Send([]byte{0, 0, 0, 42, 0, 0, 0, 0}); err != nil { // unknown id 42
		t.Fatal(err)
	}
	tb.Run()
	if got := tb.A.Genie.Stats().RPCOrphans; got != 2 {
		t.Errorf("RPCOrphans = %d, want 2", got)
	}
	if got := sink.counts["rpc.orphan"]; got != 2 {
		t.Errorf("rpc.orphan instants = %d, want 2", got)
	}
	if client.Outstanding() != 0 {
		t.Errorf("outstanding = %d", client.Outstanding())
	}
}

// reliableAllocsPerFrame runs rounds of window reliable frames of
// payload bytes with semantics sem over a warmed early-demultiplexed
// channel and returns the bytes and the mallocs allocated per settled
// (acked) frame, with the data frame's length. The timeout is long
// enough that no frame is sent twice, so every frame's cost is one
// transmission and one ack.
func reliableAllocsPerFrame(t *testing.T, sem Semantics, payload, window, rounds int) (bytesPer, mallocsPer float64, frame int) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux, FramesPerHost: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, err := NewReliableChannel(tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess(), 80, sem, payload, window, ReliableConfig{RTO: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	var sum int
	rb.OnDeliver(func(_ uint32, p []byte) { sum += int(p[0]) })
	data := bytes.Repeat([]byte{7}, payload)
	round := func() {
		for i := 0; i < window; i++ {
			if _, err := ra.Send(data); err != nil {
				t.Fatal(err)
			}
		}
		tb.Run()
	}
	const warm = 5 // warm the engine arena, frames, stages, pools and spare slices
	for i := 0; i < warm; i++ {
		round()
	}
	before := ra.Stats().Acked
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	acked := ra.Stats().Acked - before
	if acked != uint64(rounds*window) || sum != 7*(rounds+warm)*window || ra.Outstanding() != 0 || ra.Stats().Retransmits != 0 {
		t.Fatalf("acked %d frames (sum %d, %d outstanding, %d retransmits), want %d once each",
			acked, sum, ra.Outstanding(), ra.Stats().Retransmits, rounds*window)
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(acked),
		float64(m1.Mallocs-m0.Mallocs) / float64(acked), payload + relHeaderLen
}

// TestReliableReceiveAllocs pins the borrowed-payload receive path. On a
// warmed 2048-byte channel the whole exchange of a frame and its ack
// stays under two frames' worth of allocation, bookkeeping included:
// the sender reuses its wire frame and ack header, the output snapshot
// returns to the wire pool, the receiver's copyout gathers into a stage
// and reading into a spare slice and verifying and delivering in place
// allocate no payload at all. About one frame is the headroom the race
// detector needs: its sync.Pool drops a quarter of the buffers put back.
// A fresh receive slice, a scratch copy for verification and a payload
// copy would each add a frame.
func TestReliableReceiveAllocs(t *testing.T) {
	perFrame, _, frame := reliableAllocsPerFrame(t, Copy, 2048, 4, 50)
	t.Logf("%.0f bytes allocated per delivered %d-byte frame", perFrame, frame)
	if limit := float64(2 * frame); perFrame > limit {
		t.Errorf("%.0f bytes allocated per delivered frame, want at most %.0f", perFrame, limit)
	}
}

// TestReliableSendAllocs pins the send side's reuse. On a warmed channel
// of the largest frames every settled frame reuses a settled record's
// frame slice and retransmit callback, acks are built in one scratch
// header, and the output's wire snapshot comes back from the receiving
// adapter to the pool, so the bytes allocated per settled frame stay
// well below one frame: a fresh wire frame, a fresh snapshot or a fresh
// copyout gather would each cost a whole frame. The frame fills its
// wire-pool class, so the race detector's sync.Pool, which drops a
// quarter of the buffers put back, costs about a quarter frame.
func TestReliableSendAllocs(t *testing.T) {
	perFrame, _, frame := reliableAllocsPerFrame(t, Copy, netsim.MaxFrame-relHeaderLen, 4, 50)
	t.Logf("%.0f bytes allocated per settled %d-byte frame", perFrame, frame)
	if limit := float64(frame) / 2; perFrame > limit {
		t.Errorf("%.0f bytes allocated per settled frame, want at most %.0f", perFrame, limit)
	}
}

// TestReliableFrameMallocs gates the per-frame bookkeeping of the
// closed-loop path. On a warmed 2048-byte early-demultiplexed channel a
// settled frame (the data frame and its ack) reuses its window slot,
// its endpoint output record, its delivery records and its kernel
// buffer, so what is left per frame is a handful of mallocs: at most 4
// for every semantics but move, whose dispose builds a fresh region and
// memory object, and at most 12 for move. Allocating any of those
// records per frame again adds two or more mallocs per frame. Under
// -race, sync.Pool drops a quarter of the records put back, so the
// gate is skipped there.
func TestReliableFrameMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race")
	}
	for _, sem := range AllSemantics() {
		_, mallocs, frame := reliableAllocsPerFrame(t, sem, 2048, 4, 50)
		limit := 4.0
		if sem == Move {
			limit = 12
		}
		t.Logf("%-18v %5.1f mallocs per settled %d-byte frame (limit %.0f)", sem, mallocs, frame, limit)
		if mallocs > limit {
			t.Errorf("%v: %.1f mallocs per settled frame, want at most %.0f", sem, mallocs, limit)
		}
	}
}
