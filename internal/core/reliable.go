package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/checksum"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Reliable delivery over a message channel: every data frame carries a
// sequence number, a payload length, and an Internet checksum; the
// receiver acknowledges each good frame and the sender retransmits on a
// sim-clock timeout with bounded exponential backoff. This is the
// recovery layer that makes the adapters' drop behavior (Section 6.2 —
// pooled and outboard architectures drop when no buffer is available)
// survivable instead of merely counted: drops, duplicates, reorderings
// and corruptions injected by internal/faults all resolve to exactly-
// once, integrity-checked delivery.
//
// The channel underneath runs with credit flow control off: a dropped
// frame would strand its credit forever, and the retransmit layer
// supplies its own windowing. Weak-integrity semantics compose
// particularly nicely here — if a sender overwrites a buffer mid-
// flight (the hazard the paper's taxonomy names), the checksum fails
// at the receiver and the retransmission carries the stable bytes.

// relHeaderLen prefixes each reliable frame: type (1), pad (1),
// checksum (2), sequence number (4), payload length (4). The explicit
// length matters because system-allocated transports pad frames to
// whole buffers.
const relHeaderLen = 12

// Reliable frame types.
const (
	relData = 0x1
	relAck  = 0x2
)

// ErrReliableClosed reports a send on a closed reliable endpoint.
var ErrReliableClosed = errors.New("core: reliable endpoint closed")

// ReliableConfig tunes the retransmit machinery. The zero value takes
// defaults sized for the paper's OC-3 testbed latencies.
type ReliableConfig struct {
	// RTO is the initial retransmission timeout.
	RTO sim.Duration
	// Backoff multiplies the timeout per retransmission (exponential).
	Backoff float64
	// MaxRTO caps the backed-off timeout.
	MaxRTO sim.Duration
	// MaxAttempts bounds transmissions per frame (first send included);
	// beyond it the frame is abandoned and counted in Stats.GaveUp.
	MaxAttempts int
	// RetryDelay spaces retries of transiently failed sends (channel
	// backpressure, injected allocation faults) and ack sends.
	RetryDelay sim.Duration
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.RTO <= 0 {
		c.RTO = 2000 // ~2x a 60 KB frame time at OC-3
	}
	if c.Backoff < 1 {
		c.Backoff = 2
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 16 * c.RTO
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 32
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50
	}
	return c
}

// ReliableStats counts the recovery machinery's work.
type ReliableStats struct {
	Sent           uint64 // distinct data frames accepted from the application
	Retransmits    uint64 // timeout-driven re-sends
	SendDeferrals  uint64 // transiently failed (re)sends retried later
	Acked          uint64 // frames confirmed delivered
	GaveUp         uint64 // frames abandoned after MaxAttempts
	Delivered      uint64 // frames handed to the application (exactly once each)
	Duplicates     uint64 // good frames suppressed by sequence number
	CorruptDropped uint64 // frames rejected by checksum
	AcksSent       uint64
	OrphanAcks     uint64 // acks for unknown (already completed) frames
}

// relPending is one unacknowledged data frame. The record belongs to
// the sender's host (see channelRecords): once the frame settles
// (acked, given up or closed) the record and its frame slice go back
// to the host and carry a later frame, of any reliable channel there.
// Its timer is cancelled or has fired by then, so nothing else still
// refers to it. Its retransmit callback is bound to the record, once.
type relPending struct {
	r        *Reliable // the channel end sending the frame
	seq      uint32
	frame    []byte // full wire frame, reused verbatim by retransmits
	attempts int
	timer    sim.Handle
	done     bool
	fire     func() // the retransmit timer's callback: transmit, bound once
}

// transmit is the record's retransmit timer event.
func (p *relPending) transmit() { p.r.transmit(p) }

// reset returns the record to the state the host made it in, keeping
// its frame storage and its bound callback.
func (p *relPending) reset() {
	*p = relPending{frame: p.frame[:0], fire: p.fire}
}

// Reliable is one end of a reliable channel. Both ends are symmetric:
// either may send, and each acknowledges its peer's data frames.
type Reliable struct {
	ep  *Endpoint
	eng *sim.Engine
	cfg ReliableConfig

	nextSeq uint32
	// sendQ is the send window: sendQ[head+i] is the record of frame
	// sendBase+i, nil once settled. Sequence numbers are consecutive,
	// so an ack finds its record by subtraction; the window's front
	// advances past settled frames.
	sendQ       []*relPending
	head        int
	sendBase    uint32
	outstanding int

	dedup     dedup
	onDeliver func(seq uint32, payload []byte)
	onSettled func(seq uint32, acked bool)
	closed    bool
	stats     ReliableStats

	ack [relHeaderLen]byte // ack frame scratch: Endpoint.Send copies it at once
}

// dedup records which data frames have been delivered. The sender
// numbers frames consecutively from 1, so every frame up to through
// has been delivered and the few above it that arrived early are bits
// of a bitmap: bit i of above[i/64] stands for frame base+i, where base
// lies less than a word below through+1. The bitmap spans the
// frames between the oldest undelivered one and the newest delivered
// one, which reordering and retransmission keep within the sender's
// window; a frame the sender abandoned after MaxAttempts is a gap that
// never fills, and only then does the bitmap grow, by a bit per frame.
// A number no sender would use yet — 0, or dedupSpan or more past
// base, which only a corrupted frame whose checksum still matched can
// carry — is kept in a map instead, so it cannot size the bitmap.
type dedup struct {
	through uint32
	base    uint32
	above   []uint64
	early   int // bits set above through
	far     map[uint32]bool
}

// dedupSpan bounds the bitmap: frames this far past its base go to the
// map.
const dedupSpan = 1 << 16

// seen reports whether frame seq was delivered.
func (d *dedup) seen(seq uint32) bool {
	switch {
	case d.far[seq]:
		return true
	case seq == 0:
		return false
	case seq <= d.through:
		return true
	}
	i := seq - d.base
	w := int(i / 64)
	return w < len(d.above) && d.above[w]&(1<<(i%64)) != 0
}

// mark records the delivery of frame seq, which was not seen.
func (d *dedup) mark(seq uint32) {
	switch {
	case seq == d.through+1 && len(d.above) == 0 && d.far == nil:
		d.through++ // in order: no bitmap at all
		d.base = d.through + 1
		return
	case seq == 0 || seq-d.base >= dedupSpan:
		if d.far == nil {
			d.far = make(map[uint32]bool)
		}
		d.far[seq] = true
		return
	}
	i := seq - d.base
	for int(i/64) >= len(d.above) {
		d.above = append(d.above, 0)
	}
	d.above[i/64] |= 1 << (i % 64)
	d.early++
	for {
		next := d.through + 1
		j := next - d.base
		if int(j/64) < len(d.above) && d.above[j/64]&(1<<(j%64)) != 0 {
			d.early--
		} else if d.far[next] {
			delete(d.far, next)
		} else {
			break
		}
		d.through++
	}
	if d.early == 0 {
		// Nothing above through: the bitmap empties.
		clear(d.above)
		d.above, d.base = d.above[:0], d.through+1
		return
	}
	// Drop the words wholly at or below through.
	if k := int((d.through + 1 - d.base) / 64); k > 0 {
		n := copy(d.above, d.above[k:])
		clear(d.above[n:])
		d.above = d.above[:n]
		d.base += 64 * uint32(k)
	}
}

// NewReliableChannel connects two processes with a reliable message
// channel of the given buffering semantics: bufSize is the largest
// application payload, window the number of preposted receive buffers
// per side. The underlying channel frames are relHeaderLen bytes
// larger and run without credit flow control (see package comment).
func NewReliableChannel(a, b *Process, basePort int, sem Semantics, bufSize, window int, cfg ReliableConfig) (*Reliable, *Reliable, error) {
	ea, eb, err := NewChannel(a, b, basePort, sem, bufSize+relHeaderLen, window)
	if err != nil {
		return nil, nil, err
	}
	ea.noCredits, eb.noCredits = true, true
	ra := newReliable(ea, cfg)
	rb := newReliable(eb, cfg)
	return ra, rb, nil
}

func newReliable(ep *Endpoint, cfg ReliableConfig) *Reliable {
	r := &Reliable{
		ep:    ep,
		eng:   ep.p.g.eng,
		cfg:   cfg.withDefaults(),
		sendQ: make([]*relPending, 0, ep.window),
		dedup: dedup{base: 1},
	}
	ep.OnMessage(r.onMessage)
	return r
}

// Endpoint returns the underlying channel endpoint.
func (r *Reliable) Endpoint() *Endpoint { return r.ep }

// Stats returns a snapshot of the recovery counters.
func (r *Reliable) Stats() ReliableStats { return r.stats }

// Outstanding reports data frames sent but not yet acknowledged or
// abandoned.
func (r *Reliable) Outstanding() int { return r.outstanding }

// OnDeliver installs the exactly-once delivery upcall. The payload is
// borrowed from the receive path for the duration of the upcall: it is
// reused for a later frame once the upcall returns, so a callee that
// keeps it copies it.
func (r *Reliable) OnDeliver(fn func(seq uint32, payload []byte)) { r.onDeliver = fn }

// OnSettled installs an upcall fired once per sent frame when it leaves
// the send queue: acked true on acknowledgement, false when the frame
// was abandoned after MaxAttempts. Closed-loop senders use it as the
// completion signal that admits the next operation, turning the
// retransmit machinery's backpressure into workload backpressure.
func (r *Reliable) OnSettled(fn func(seq uint32, acked bool)) { r.onSettled = fn }

// Close cancels retransmit timers and the posted receive window. In-
// flight frames are abandoned without touching GaveUp.
func (r *Reliable) Close() {
	r.closed = true
	for r.outstanding > 0 {
		p := r.sendQ[r.head] // the front is never a settled frame
		p.timer.Cancel()
		r.settle(p)
	}
	r.ep.Close()
}

// Send accepts one payload for reliable delivery and returns its
// sequence number. Transmission, loss recovery, and acknowledgement all
// happen on the simulated clock during a subsequent engine run.
func (r *Reliable) Send(payload []byte) (uint32, error) {
	if r.closed {
		return 0, ErrReliableClosed
	}
	if len(payload) > r.ep.bufSize-relHeaderLen {
		return 0, fmt.Errorf("%w: %d > %d", ErrMessageTooBig, len(payload), r.ep.bufSize-relHeaderLen)
	}
	r.nextSeq++
	seq := r.nextSeq
	p := r.ep.p.g.recs.pending(r)
	p.seq = seq
	p.frame = buildFrame(p.frame, relData, seq, payload)
	r.enqueue(p)
	r.stats.Sent++
	r.transmit(p)
	return seq, nil
}

// enqueue appends p, the record of the next frame, to the send window,
// moving the window to the front of its storage rather than growing it
// when settled frames left room there.
func (r *Reliable) enqueue(p *relPending) {
	if r.outstanding == 0 {
		r.sendQ, r.head, r.sendBase = r.sendQ[:0], 0, p.seq
	} else if r.head > 0 && len(r.sendQ) == cap(r.sendQ) {
		n := copy(r.sendQ, r.sendQ[r.head:])
		clear(r.sendQ[n:])
		r.sendQ, r.head = r.sendQ[:n], 0
	}
	r.sendQ = append(r.sendQ, p)
	r.outstanding++
}

// queued returns the unsettled record of frame seq, or nil.
func (r *Reliable) queued(seq uint32) *relPending {
	if seq < r.sendBase {
		return nil
	}
	i := r.head + int(seq-r.sendBase)
	if i >= len(r.sendQ) {
		return nil
	}
	return r.sendQ[i]
}

// settle removes p from the send window and returns it to the host for
// reuse. The caller has cancelled p's timer or is running from it.
func (r *Reliable) settle(p *relPending) {
	p.done = true
	r.sendQ[r.head+int(p.seq-r.sendBase)] = nil
	r.outstanding--
	for r.head < len(r.sendQ) && r.sendQ[r.head] == nil {
		r.head++
		r.sendBase++
	}
	r.ep.p.g.recs.putPending(p)
}

// transmit performs one (re)transmission attempt for p and arms the
// next timer: the backed-off RTO after a successful handoff to the
// channel, or the short retry delay after a transient send failure
// (channel backpressure, injected allocation fault). Either way the
// frame stays scheduled until acked or out of attempts.
func (r *Reliable) transmit(p *relPending) {
	if p.done || r.closed {
		return
	}
	if p.attempts >= r.cfg.MaxAttempts {
		seq := p.seq
		r.settle(p)
		r.stats.GaveUp++
		if r.onSettled != nil {
			r.onSettled(seq, false)
		}
		return
	}
	p.attempts++
	if p.attempts > 1 {
		r.stats.Retransmits++
		r.instant("retx.send", len(p.frame))
	}
	next := r.rto(p.attempts)
	if err := r.ep.Send(p.frame); err != nil {
		r.stats.SendDeferrals++
		next = r.cfg.RetryDelay
	}
	p.timer = r.eng.Schedule(next, p.fire)
}

// rto returns the bounded exponentially backed-off timeout for the
// given attempt count (1 = first transmission).
func (r *Reliable) rto(attempt int) sim.Duration {
	d := r.cfg.RTO
	for i := 1; i < attempt; i++ {
		d = sim.Duration(float64(d) * r.cfg.Backoff)
		if d >= r.cfg.MaxRTO {
			return r.cfg.MaxRTO
		}
	}
	return min(d, r.cfg.MaxRTO)
}

// onMessage handles one arriving channel frame: verify, dedup, deliver
// and ack for data; complete the pending transmission for acks.
func (r *Reliable) onMessage(m *Message) {
	data := m.Data()
	if m.Err() != nil || len(data) < relHeaderLen {
		// A dispose-path failure (injected alloc fault) or a frame
		// mangled below header size: treat as loss, the retransmit
		// timer recovers.
		r.stats.CorruptDropped++
		r.instant("retx.corrupt", len(data))
		r.release(m)
		return
	}
	ftype := data[0]
	seq := binary.BigEndian.Uint32(data[4:])
	n := int(binary.BigEndian.Uint32(data[8:]))
	if n < 0 || n > len(data)-relHeaderLen || !verifyFrame(data, n) {
		r.stats.CorruptDropped++
		r.instant("retx.corrupt", len(data))
		r.release(m) // no ack: the sender retransmits
		return
	}
	switch ftype {
	case relData:
		if r.dedup.seen(seq) {
			r.stats.Duplicates++
		} else {
			r.dedup.mark(seq)
			r.stats.Delivered++
			if r.onDeliver != nil {
				r.onDeliver(seq, data[relHeaderLen:relHeaderLen+n:relHeaderLen+n])
			}
		}
		// Repost the window buffer before acking, and always ack — a
		// duplicate means our previous ack was lost.
		r.release(m)
		r.sendAck(seq, 1)
	case relAck:
		r.release(m)
		p := r.queued(seq)
		if p == nil {
			r.stats.OrphanAcks++
			return
		}
		p.timer.Cancel()
		r.settle(p)
		r.stats.Acked++
		if r.onSettled != nil {
			r.onSettled(seq, true)
		}
	default:
		// Corrupted type that still passed checksum: vanishingly rare
		// (16-bit sum), drop and let the sender retransmit.
		r.stats.CorruptDropped++
		r.release(m)
	}
}

// release reposts the message's receive buffer. Transient repost
// failures are retried inside the channel layer; anything surfacing
// here is terminal for that buffer and the retransmit machinery works
// around the shrunken window.
func (r *Reliable) release(m *Message) { _ = m.Release() }

// sendAck acknowledges seq, retrying transient send failures on the
// simulated clock (bounded; a persistently unsendable ack is recovered
// by the peer's retransmit hitting our dedup table, which re-acks).
func (r *Reliable) sendAck(seq uint32, attempt int) {
	if r.closed {
		return
	}
	if err := r.ep.Send(buildFrame(r.ack[:], relAck, seq, nil)); err != nil {
		if attempt < sendAckRetryLimit {
			r.eng.Schedule(sim.Duration(ackRetryUS), func() { r.sendAck(seq, attempt+1) })
		}
		return
	}
	r.stats.AcksSent++
	r.instant("retx.ack", relHeaderLen)
}

func (r *Reliable) instant(name string, bytes int) {
	if tr := r.ep.p.g.tr; tr != nil {
		tr.Instant(trace.CatOp, name, bytes)
	}
}

// buildFrame assembles a wire frame in dst's storage (growing it when
// too small): header (type, pad, checksum, seq, length) plus payload,
// with the checksum computed over the whole frame with its own field
// zeroed.
func buildFrame(dst []byte, ftype byte, seq uint32, payload []byte) []byte {
	n := relHeaderLen + len(payload)
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	f := dst[:n]
	f[0], f[1], f[2], f[3] = ftype, 0, 0, 0
	binary.BigEndian.PutUint32(f[4:], seq)
	binary.BigEndian.PutUint32(f[8:], uint32(len(payload)))
	copy(f[relHeaderLen:], payload)
	binary.BigEndian.PutUint16(f[2:], checksum.Sum(f))
	return f
}

// verifyFrame checks the header checksum over header plus n payload
// bytes (the frame may be padded beyond that by system-allocated
// transports; padding is not covered, and corruption there is
// harmless). The sum skips the checksum field in place, which is the
// same as summing it zeroed.
func verifyFrame(data []byte, n int) bool {
	want := binary.BigEndian.Uint16(data[2:])
	acc := checksum.Accumulate(0, data[:2])
	acc = checksum.Accumulate(acc, data[4:relHeaderLen+n])
	return checksum.Fold(acc) == want
}
