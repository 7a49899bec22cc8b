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
// payload slice to the endpoint; Data returns nil afterwards. Only the
// first Release reposts: later calls return ErrMessageReleased.
func (m *Message) Release() error {
	if m.released {
		return ErrMessageReleased
	}
	m.released = true
	ep := m.slot.ep
	err := ep.repost(m.slot)
	if m.data != nil {
		ep.spare = append(ep.spare, m.data)
		m.data = nil
	}
	return err
}

// rxSlot is one buffer of an endpoint's receive window: the input
// posted on it and the message that input completes into. Releasing
// the message reposts the same slot, so a steady channel allocates no
// input or message records; the slot's completion callback is bound
// once, when the endpoint is set up.
type rxSlot struct {
	ep  *Endpoint
	va  vm.Addr // the application buffer (0 under system-allocated semantics)
	in  InputOp
	msg Message
}

// Endpoint is one end of a channel.
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

	rxBufs    []vm.Addr // receive buffers (application-allocated)
	completed []*Message
	// spare holds the payload slices of released messages; completions
	// read into one of them instead of allocating.
	spare [][]byte
	// idle holds output records whose send is done; Send reuses them.
	idle []*OutputOp
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

// setup allocates buffers and preposts the receive window.
func (e *Endpoint) setup() error {
	if !e.sem.SystemAllocated() {
		for i := 0; i < e.window; i++ {
			tx, err := e.p.Brk(e.bufSize)
			if err != nil {
				return err
			}
			e.txBufs = append(e.txBufs, tx)
			rx, err := e.p.Brk(e.bufSize)
			if err != nil {
				return err
			}
			e.rxBufs = append(e.rxBufs, rx)
		}
	}
	for i := 0; i < e.window; i++ {
		s := &rxSlot{ep: e}
		if !e.sem.SystemAllocated() {
			s.va = e.rxBufs[i]
		}
		s.msg.slot = s
		s.in.onComplete = s.complete
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
// a released message's slice when one is spare. Every slice has room
// for bufSize bytes, the most an input posted by this endpoint receives.
func (e *Endpoint) payloadSlice(n int) []byte {
	if k := len(e.spare) - 1; k >= 0 {
		b := e.spare[k][:n]
		e.spare = e.spare[:k]
		return b
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
	g := e.p.g
	for _, in := range append([]*InputOp(nil), g.recvQ[e.port]...) {
		in.Cancel()
	}
}

// Send transmits data to the peer endpoint. The data is copied into one
// of the channel's rotating send buffers first (the application-level
// write the channel user would have done anyway); at most `window` sends
// may be outstanding. The output runs on the simulated clock in an
// output record the endpoint owns and reuses once the send is done, so
// Send reports only whether the output started.
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
	op := e.output()
	seg := [1]Segment{{va, length}}
	if err := e.p.outputV(op, e.peer.port, e.sem, seg[:]); err != nil {
		e.reclaim(op)
		return err
	}
	if !e.noCredits {
		e.credits--
	}
	return nil
}

// output returns an idle output record, or a new one whose completion
// callback hands it back to the idle list. The list holds at most as
// many records as sends were ever in flight at once.
func (e *Endpoint) output() *OutputOp {
	if k := len(e.idle) - 1; k >= 0 {
		op := e.idle[k]
		e.idle = e.idle[:k]
		return op
	}
	return &OutputOp{onDone: e.reclaim}
}

// reclaim returns a done output record to the idle list.
func (e *Endpoint) reclaim(op *OutputOp) { e.idle = append(e.idle, op) }

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
