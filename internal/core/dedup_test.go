package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/faults"
)

// TestDedupMatchesSetModel drives the delivered-frame record with
// random arrival orders — windows of consecutive frames shuffled, each
// arriving up to three times — plus the numbers no sender uses yet (0
// and far past the window), and checks every seen/mark against a set.
func TestDedupMatchesSetModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := dedup{base: 1}
	model := map[uint32]bool{}
	check := func(seq uint32) {
		t.Helper()
		if got := d.seen(seq); got != model[seq] {
			t.Fatalf("seen(%d) = %t, model %t (through %d, base %d, %d words)", seq, got, model[seq], d.through, d.base, len(d.above))
		}
		if !model[seq] {
			d.mark(seq)
			model[seq] = true
		}
	}
	next := uint32(1)
	for round := 0; round < 400; round++ {
		n := 1 + rng.IntN(150)
		var arrivals []uint32
		for i := 0; i < n; i++ {
			for range 1 + rng.IntN(3) {
				arrivals = append(arrivals, next+uint32(i))
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
		for _, seq := range arrivals {
			check(seq)
		}
		next += uint32(n)
		if round%50 == 0 {
			check(0)
			check(next + dedupSpan + uint32(rng.IntN(1000)))
		}
		if len(d.above) > 1 {
			t.Fatalf("round %d: %d bitmap words after every frame up to %d arrived", round, len(d.above), next-1)
		}
	}
	for seq := uint32(0); seq < next+2*dedupSpan; seq += 97 {
		if got := d.seen(seq); got != model[seq] {
			t.Fatalf("final seen(%d) = %t, model %t", seq, got, model[seq])
		}
	}
}

// TestReliableDedupStaysWithinWindow sends 10,000 frames over a channel
// that duplicates and reorders, a window of four at a time, and
// requires the receiver's dedup state to stay within one bitmap word
// while every frame is delivered exactly once.
func TestReliableDedupStaysWithinWindow(t *testing.T) {
	const frames, window = 10000, 4
	tb, ra, rb := reliablePair(t, faults.Spec{Seed: 19, Duplicate: 0.3, Reorder: 0.3}, Copy, ReliableConfig{})
	delivered := 0
	rb.OnDeliver(func(seq uint32, p []byte) {
		if want := byte(seq); p[0] != want {
			t.Fatalf("frame %d delivered payload %d", seq, p[0])
		}
		delivered++
	})
	words := 0
	for sent := 0; sent < frames; sent += window {
		for i := range window {
			if _, err := ra.Send([]byte{byte(sent + i + 1), 7, 7, 7}); err != nil {
				t.Fatal(err)
			}
		}
		tb.Run()
		words = max(words, len(rb.dedup.above))
	}
	st := rb.Stats()
	if delivered != frames || st.Delivered != frames || rb.dedup.through != frames {
		t.Fatalf("delivered %d (stats %d, through %d), want %d", delivered, st.Delivered, rb.dedup.through, frames)
	}
	if st.Duplicates == 0 || tb.Injector().Stats().Reorders == 0 {
		t.Fatalf("no duplicate suppressed or no frame reordered: %+v, %+v", st, tb.Injector().Stats())
	}
	if words > 1 || len(rb.dedup.above) != 0 || rb.dedup.far != nil {
		t.Errorf("dedup state grew to %d bitmap words (%d at the end, far %v), want at most 1", words, len(rb.dedup.above), rb.dedup.far)
	}
}

// TestReliableAncientDuplicateSuppressed replays a frame delivered a
// thousand frames earlier: the receiver must suppress it and ack it
// again, and the sender, which settled the frame long ago, counts the
// ack as an orphan.
func TestReliableAncientDuplicateSuppressed(t *testing.T) {
	tb, ra, rb := reliablePair(t, faults.Spec{}, EmulatedCopy, ReliableConfig{})
	d := collect(rb)
	for range 250 {
		sendAll(t, ra, 4)
		tb.Run()
	}
	before, sender := rb.Stats(), ra.Stats()
	if before.Delivered != 1000 {
		t.Fatalf("delivered %d frames, want 1000", before.Delivered)
	}
	old := bytes.Repeat([]byte{9}, 300)
	if err := ra.Endpoint().Send(buildFrame(nil, relData, 3, old)); err != nil {
		t.Fatal(err)
	}
	tb.Run()
	after := rb.Stats()
	if after.Delivered != before.Delivered || after.Duplicates != before.Duplicates+1 || after.AcksSent != before.AcksSent+1 {
		t.Errorf("replayed frame 3: delivered %d→%d, duplicates %d→%d, acks %d→%d; want it suppressed and re-acked",
			before.Delivered, after.Delivered, before.Duplicates, after.Duplicates, before.AcksSent, after.AcksSent)
	}
	if d.counts[3] != 1 || bytes.Equal(d.payloads[3], old) {
		t.Errorf("frame 3 handed up %d times, payload replaced %t", d.counts[3], bytes.Equal(d.payloads[3], old))
	}
	if got := ra.Stats().OrphanAcks; got != sender.OrphanAcks+1 {
		t.Errorf("sender orphan acks %d → %d, want one more", sender.OrphanAcks, got)
	}
}
