package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/vm"
)

// This file provides a message-channel abstraction over the Genie data
// path — the kind of communication layer the paper's motivating
// applications (parallel file systems, supercomputing on workstation
// clusters) build: a windowed, preposted, bidirectional channel whose
// buffering semantics is chosen per endpoint.

// Channel errors.
var (
	ErrChannelFull     = errors.New("core: channel send window full")
	ErrMessageTooBig   = errors.New("core: message exceeds channel buffer size")
	ErrMessageReleased = errors.New("core: message already released")
)

// Message is one received datagram, borrowed from the channel until
// Release is called (which reposts the receive buffer). A Message lives
// in its receive window slot and carries the slot's next datagram after
// the repost, so it must not be used after Release: a second Release
// reports ErrMessageReleased and reposts nothing.
type Message struct {
	slot     *rxSlot
	data     []byte
	released bool
}

// Data returns the message payload, read out of the receive buffer so
// that every semantics hands the application the same kind of slice —
// the paper's transparency goal. The slice is valid until Release,
// which returns it to the endpoint for the next message; a caller that
// keeps the payload longer copies it.
func (m *Message) Data() []byte { return m.data }

// CompletedAt returns the simulated time the message became available;
// subtract the matching send's StartedAt for end-to-end latency.
func (m *Message) CompletedAt() float64 { return float64(m.slot.in.CompletedAt) }

// Err returns the message's delivery error, if any.
func (m *Message) Err() error { return m.slot.in.Err }

// Release returns the receive buffer to the channel window and the
// payload slice to the host; Data returns nil afterwards. Only the
// first Release reposts: later calls return ErrMessageReleased.
func (m *Message) Release() error {
	if m.released {
		return ErrMessageReleased
	}
	m.released = true
	ep := m.slot.ep
	err := ep.repost(m.slot)
	if m.data != nil {
		recs := &ep.p.g.recs
		recs.spare = append(recs.spare, m.data)
		m.data = nil
	}
	return err
}

// rxSlot is one buffer of an endpoint's receive window: the input
// posted on it and the message that input completes into. Releasing
// the message reposts the same slot, so a steady channel allocates no
// input or message records. Slots belong to the host (see
// channelRecords): the slot's completion callbacks are bound once, when
// the host makes it, and survive a Reset with the slot.
type rxSlot struct {
	ep  *Endpoint
	va  vm.Addr // the application buffer (0 under system-allocated semantics)
	in  InputOp
	msg Message
}

// reset returns the slot to the state the host made it in: no
// endpoint, an empty input record that keeps its bound callbacks and
// its kernel buffer's frame storage, and an unreleased message with no
// payload.
func (s *rxSlot) reset() {
	frames := s.in.ownKbuf.frames[:0]
	clear(frames[:cap(frames)])
	s.in = InputOp{onComplete: s.in.onComplete, finish: s.in.finish, ownKbuf: kernelBuffer{frames: frames}}
	s.ep, s.va = nil, 0
	s.msg = Message{slot: s}
}

// channelRecords is a host's store of the per-frame records its channel
// endpoints use: receive window slots, endpoint output records and
// reliable send records, each with its callbacks bound once, plus the
// payload slices of released messages. Endpoints on the host take
// records from it instead of allocating; output and send records come
// back as soon as their frame is done, window slots and payloads at the
// host's next Reset, which returns every record to the state it was
// made in. Each list holds at most as many records as the host's
// endpoints used at once, so a recycled host starts a run with the
// records its last run needed and a fresh host starts with none.
type channelRecords struct {
	slots     []*rxSlot // every window slot made on this host, in order
	slotsUsed int       // slots[:slotsUsed] belong to endpoints opened since the last Reset

	outs     []*OutputOp // every endpoint output record made on this host
	idleOuts []*OutputOp // output records whose send is done
	reclaim  func(*OutputOp)

	rels     []*relPending // every reliable send record made on this host
	idleRels []*relPending // settled send records

	// spare holds the payload slices of released messages; completions
	// read into one of them instead of allocating.
	spare [][]byte
}

// slot hands e a window slot for the receive buffer at va, making one
// when every slot is taken.
func (rc *channelRecords) slot(e *Endpoint, va vm.Addr) *rxSlot {
	if rc.slotsUsed == len(rc.slots) {
		s := &rxSlot{}
		s.msg.slot = s
		s.in.onComplete, s.in.finish = s.complete, s.in.complete
		rc.slots = append(rc.slots, s)
	}
	s := rc.slots[rc.slotsUsed]
	rc.slotsUsed++
	s.ep, s.va = e, va
	return s
}

// output returns an idle output record, or a new one whose completion
// hands it back to the idle list.
func (rc *channelRecords) output() *OutputOp {
	if k := len(rc.idleOuts) - 1; k >= 0 {
		op := rc.idleOuts[k]
		rc.idleOuts = rc.idleOuts[:k]
		return op
	}
	if rc.reclaim == nil {
		rc.reclaim = rc.putOutput
	}
	op := &OutputOp{onDone: rc.reclaim}
	op.launch, op.sent = op.transmit, op.dispose
	rc.outs = append(rc.outs, op)
	return op
}

// putOutput returns a done output record to the idle list.
func (rc *channelRecords) putOutput(op *OutputOp) { rc.idleOuts = append(rc.idleOuts, op) }

// pending returns a send record for a new frame of r, reusing a settled
// one when the idle list has any.
func (rc *channelRecords) pending(r *Reliable) *relPending {
	var p *relPending
	if k := len(rc.idleRels) - 1; k >= 0 {
		p = rc.idleRels[k]
		rc.idleRels = rc.idleRels[:k]
		p.reset()
	} else {
		p = &relPending{}
		p.fire = p.transmit
		rc.rels = append(rc.rels, p)
	}
	p.r = r
	return p
}

// putPending returns a settled send record to the idle list.
func (rc *channelRecords) putPending(p *relPending) { rc.idleRels = append(rc.idleRels, p) }

// reset returns every record to the state it was made in and makes all
// of them available again. The endpoints that held them are dead: the
// host's engine, adapter and VM have been reset, so no event, frame or
// mapping still refers to a record. Unreleased payloads join the spare
// slices.
func (rc *channelRecords) reset() {
	for _, s := range rc.slots[:rc.slotsUsed] {
		if s.msg.data != nil {
			rc.spare = append(rc.spare, s.msg.data)
		}
		s.reset()
	}
	rc.slotsUsed = 0
	for _, op := range rc.outs {
		*op = OutputOp{onDone: op.onDone, launch: op.launch, sent: op.sent}
	}
	rc.idleOuts = append(rc.idleOuts[:0], rc.outs...)
	for _, p := range rc.rels {
		p.reset()
	}
	rc.idleRels = append(rc.idleRels[:0], rc.rels...)
}

// opRecords is a host's store of the records Process.Input and
// Process.OutputV return. A record stays the caller's until the host's
// next Reset, which returns every record handed out since the last one
// to the state it was made in, callbacks bound, so a recycled host's
// run takes the records its last run made. The store grows to the most
// records of each kind one run has taken; a host that never resets
// keeps every record it handed out.
type opRecords struct {
	inputs  []*InputOp
	inUsed  int // inputs[:inUsed] were handed out since the last Reset
	outputs []*OutputOp
	outUsed int
}

// input hands out an input record, making one when every record is
// taken.
func (or *opRecords) input() *InputOp {
	if or.inUsed == len(or.inputs) {
		in := &InputOp{}
		in.finish = in.complete
		or.inputs = append(or.inputs, in)
	}
	in := or.inputs[or.inUsed]
	or.inUsed++
	return in
}

// output hands out an output record, making one when every record is
// taken.
func (or *opRecords) output() *OutputOp {
	if or.outUsed == len(or.outputs) {
		op := &OutputOp{}
		op.launch, op.sent = op.transmit, op.dispose
		or.outputs = append(or.outputs, op)
	}
	op := or.outputs[or.outUsed]
	or.outUsed++
	return op
}

// reset returns the records handed out since the last reset to the
// state they were made in and makes them available again.
func (or *opRecords) reset() {
	for _, in := range or.inputs[:or.inUsed] {
		frames := in.ownKbuf.frames[:0]
		clear(frames[:cap(frames)])
		*in = InputOp{finish: in.finish, ownKbuf: kernelBuffer{frames: frames}}
	}
	or.inUsed = 0
	for _, op := range or.outputs[:or.outUsed] {
		*op = OutputOp{launch: op.launch, sent: op.sent}
	}
	or.outUsed = 0
}

// Endpoint is one end of a channel. Its window slots, output records
// and payload slices come from its host's channel records and go back
// there, so a channel opened on a recycled host allocates none of them.
type Endpoint struct {
	p       *Process
	peer    *Endpoint
	port    int
	sem     Semantics
	bufSize int
	window  int

	onMessage func(*Message) // reactive delivery, bypassing the queue

	txBufs []vm.Addr // rotating send buffers (application-allocated)
	txNext int
	// credits is credit-based flow control in the style of the Credit
	// Net ATM network the paper ran on: each send consumes a credit;
	// the credit returns when the receiver consumes the message and
	// reposts its buffer, so the sender can never overrun the
	// receiver's preposted window.
	credits int
	// noCredits disables that flow control. Reliable channels set it:
	// under injected loss a dropped frame would strand its credit
	// forever (credits only return via the receiver's repost), wedging
	// the sender; the retransmit layer supplies its own windowing and
	// recovers receiver-side overruns like any other drop.
	noCredits bool

	completed []*Message
}

// NewChannel connects two processes (normally on different hosts of a
// testbed) with a bidirectional message channel: each side preposts
// `window` receive buffers of bufSize bytes on its own port and keeps a
// matching set of send buffers.
func NewChannel(a, b *Process, basePort int, sem Semantics, bufSize, window int) (*Endpoint, *Endpoint, error) {
	if !sem.Valid() {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if bufSize <= 0 || window <= 0 {
		return nil, nil, fmt.Errorf("core: NewChannel(bufSize=%d, window=%d)", bufSize, window)
	}
	ea := &Endpoint{p: a, port: basePort, sem: sem, bufSize: bufSize, window: window, credits: window}
	eb := &Endpoint{p: b, port: basePort + 1, sem: sem, bufSize: bufSize, window: window, credits: window}
	ea.peer, eb.peer = eb, ea
	for _, e := range []*Endpoint{ea, eb} {
		if err := e.setup(); err != nil {
			return nil, nil, err
		}
	}
	return ea, eb, nil
}

// setup allocates buffers, takes the window's slots from the host and
// preposts the receive window.
func (e *Endpoint) setup() error {
	recs := &e.p.g.recs
	first := recs.slotsUsed
	if !e.sem.SystemAllocated() {
		e.txBufs = make([]vm.Addr, 0, e.window)
	}
	for i := 0; i < e.window; i++ {
		var rx vm.Addr
		if !e.sem.SystemAllocated() {
			tx, err := e.p.Brk(e.bufSize)
			if err != nil {
				return err
			}
			e.txBufs = append(e.txBufs, tx)
			if rx, err = e.p.Brk(e.bufSize); err != nil {
				return err
			}
		}
		recs.slot(e, rx)
	}
	for _, s := range recs.slots[first : first+e.window] {
		if err := e.post(s); err != nil {
			return err
		}
	}
	return nil
}

// post preposts the slot's receive buffer on this endpoint's port.
func (e *Endpoint) post(s *rxSlot) error {
	return e.p.input(&s.in, e.port, e.sem, s.va, e.bufSize)
}

// complete reads a completed input into a payload slice and hands the
// slot's message to the application.
func (s *rxSlot) complete(in *InputOp) {
	e := s.ep
	data := e.payloadSlice(in.N)
	if in.Err == nil {
		in.Err = e.p.Read(in.Addr, data)
	}
	if in.Err != nil {
		clear(data) // an undelivered payload reads as zeros
	}
	m := &s.msg
	m.data, m.released = data, false
	if e.onMessage != nil {
		e.onMessage(m)
		return
	}
	e.completed = append(e.completed, m)
}

// payloadSlice returns an n-byte slice for a completing message, reusing
// a released message's slice when the host has one spare. Every slice
// has room for bufSize bytes, the most an input posted by this endpoint
// receives; a spare too small for that is dropped.
func (e *Endpoint) payloadSlice(n int) []byte {
	recs := &e.p.g.recs
	if k := len(recs.spare) - 1; k >= 0 {
		b := recs.spare[k]
		recs.spare[k] = nil
		recs.spare = recs.spare[:k]
		if cap(b) >= e.bufSize {
			return b[:n]
		}
	}
	return make([]byte, n, e.bufSize)
}

// OnMessage installs a reactive handler invoked at message completion on
// the simulated clock, instead of queueing for Recv. Servers use it to
// respond within a single simulation run.
func (e *Endpoint) OnMessage(fn func(*Message)) { e.onMessage = fn }

// repost returns a consumed receive buffer to the window and a send
// credit to the peer.
func (e *Endpoint) repost(s *rxSlot) error {
	if !e.noCredits {
		e.peer.credits++
	}
	// Recycle a system-allocated region through the region cache so the
	// next input reuses it.
	if e.sem.SystemAllocated() && s.in.Region != nil {
		weak := e.sem.WeakIntegrity()
		if err := e.p.RecycleIOBuffer(s.in.Region, weak); err != nil {
			return err
		}
	}
	if err := e.post(s); err != nil {
		return e.deferPost(s, err, 1)
	}
	return nil
}

// deferPost retries a failed window repost on the simulated clock: a
// transient injected allocation failure must not shrink the receive
// window permanently (a smaller window means more drops means more
// retransmits means more chances to fail — a ratchet). Without an
// injector the error surfaces immediately, preserving fault-free
// behavior; with one the retry is bounded so a truly wedged host still
// fails loudly via the retransmit layer's give-up accounting.
func (e *Endpoint) deferPost(s *rxSlot, err error, attempt int) error {
	g := e.p.g
	if g.nic.FaultInjector() == nil || attempt > repostAttempts {
		return err
	}
	g.eng.Schedule(sim.Duration(repostRetryUS), func() {
		if perr := e.post(s); perr != nil {
			_ = e.deferPost(s, perr, attempt+1)
		}
	})
	return nil
}

// Close cancels the endpoint's posted receive window, releasing kernel
// buffers, page references, and cached regions. The endpoint must not
// be used afterwards. Chaos harnesses close both endpoints before
// asserting resource conservation.
func (e *Endpoint) Close() {
	pq := e.p.g.queue(e.port)
	if pq == nil {
		return
	}
	for _, in := range append([]*InputOp(nil), pq.q...) {
		in.Cancel()
	}
}

// Send transmits data to the peer endpoint. The data is copied into one
// of the channel's rotating send buffers first (the application-level
// write the channel user would have done anyway); at most `window` sends
// may be outstanding. The output runs on the simulated clock in an
// output record of the host's, which the host reuses once the send is
// done, so Send reports only whether the output started.
func (e *Endpoint) Send(data []byte) error {
	if len(data) > e.bufSize {
		return fmt.Errorf("%w: %d > %d", ErrMessageTooBig, len(data), e.bufSize)
	}
	if !e.noCredits && e.credits <= 0 {
		return ErrChannelFull
	}
	var va vm.Addr
	if e.sem.SystemAllocated() {
		r, err := e.p.AllocIOBuffer(e.bufSize)
		if err != nil {
			return err
		}
		va = r.Start()
	} else {
		va = e.txBufs[e.txNext]
		e.txNext = (e.txNext + 1) % len(e.txBufs)
	}
	if err := e.p.Write(va, data); err != nil {
		return err
	}
	// Pad system-allocated sends to the full buffer so region caching
	// sizes stay uniform; application-allocated sends use exact lengths.
	length := len(data)
	if e.sem.SystemAllocated() {
		length = e.bufSize
	}
	recs := &e.p.g.recs
	op := recs.output()
	seg := [1]Segment{{va, length}}
	if err := e.p.outputV(op, e.peer.port, e.sem, seg[:]); err != nil {
		recs.putOutput(op)
		return err
	}
	if !e.noCredits {
		e.credits--
	}
	return nil
}

// Credits returns the endpoint's available send credits.
func (e *Endpoint) Credits() int { return e.credits }

// Recv pops the oldest completed message, if any.
func (e *Endpoint) Recv() (*Message, bool) {
	if len(e.completed) == 0 {
		return nil, false
	}
	m := e.completed[0]
	e.completed = slices.Delete(e.completed, 0, 1)
	return m, true
}

// Pending reports completed-but-unconsumed messages.
func (e *Endpoint) Pending() int { return len(e.completed) }

// Port returns the endpoint's receive port.
func (e *Endpoint) Port() int { return e.port }

// Semantics returns the channel's buffering semantics.
func (e *Endpoint) Semantics() Semantics { return e.sem }
