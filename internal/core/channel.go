package core

import (
	"errors"
	"fmt"

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
	ErrChannelFull   = errors.New("core: channel send window full")
	ErrMessageTooBig = errors.New("core: message exceeds channel buffer size")
)

// Message is one received datagram, borrowed from the channel until
// Release is called (which reposts the receive buffer).
type Message struct {
	ep   *Endpoint
	in   *InputOp
	data []byte
}

// Data returns the message payload, read out of the receive buffer so
// that every semantics hands the application the same kind of slice —
// the paper's transparency goal. The slice is valid until Release,
// which returns it to the endpoint for the next message; a caller that
// keeps the payload longer copies it.
func (m *Message) Data() []byte { return m.data }

// CompletedAt returns the simulated time the message became available;
// subtract the matching send's StartedAt for end-to-end latency.
func (m *Message) CompletedAt() float64 { return float64(m.in.CompletedAt) }

// Err returns the message's delivery error, if any.
func (m *Message) Err() error { return m.in.Err }

// Release returns the receive buffer to the channel window and the
// payload slice to the endpoint; Data returns nil afterwards.
func (m *Message) Release() error {
	err := m.ep.repost(m.in)
	if m.data != nil {
		m.ep.spare = append(m.ep.spare, m.data)
		m.data = nil
	}
	return err
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
		var va vm.Addr
		if !e.sem.SystemAllocated() {
			va = e.rxBufs[i]
		}
		if err := e.post(va); err != nil {
			return err
		}
	}
	return nil
}

// post preposts one receive buffer on this endpoint's port.
func (e *Endpoint) post(va vm.Addr) error {
	in, err := e.p.Input(e.port, e.sem, va, e.bufSize)
	if err != nil {
		return err
	}
	in.OnComplete(func(in *InputOp) {
		data := e.payloadSlice(in.N)
		if in.Err == nil {
			in.Err = e.p.Read(in.Addr, data)
		}
		if in.Err != nil {
			clear(data) // an undelivered payload reads as zeros
		}
		m := &Message{ep: e, in: in, data: data}
		if e.onMessage != nil {
			e.onMessage(m)
			return
		}
		e.completed = append(e.completed, m)
	})
	return nil
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
func (e *Endpoint) repost(in *InputOp) error {
	if !e.noCredits {
		e.peer.credits++
	}
	va := in.va
	if e.sem.SystemAllocated() {
		va = 0
		// Recycle the system-allocated region through the region cache
		// so the next input reuses it.
		if in.Region != nil {
			weak := e.sem.WeakIntegrity()
			if err := e.p.RecycleIOBuffer(in.Region, weak); err != nil {
				return err
			}
		}
	}
	if err := e.post(va); err != nil {
		return e.deferPost(va, err, 1)
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
func (e *Endpoint) deferPost(va vm.Addr, err error, attempt int) error {
	g := e.p.g
	if g.nic.FaultInjector() == nil || attempt > repostAttempts {
		return err
	}
	g.eng.Schedule(sim.Duration(repostRetryUS), func() {
		if perr := e.post(va); perr != nil {
			_ = e.deferPost(va, perr, attempt+1)
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
// may be outstanding.
func (e *Endpoint) Send(data []byte) (*OutputOp, error) {
	if len(data) > e.bufSize {
		return nil, fmt.Errorf("%w: %d > %d", ErrMessageTooBig, len(data), e.bufSize)
	}
	if !e.noCredits && e.credits <= 0 {
		return nil, ErrChannelFull
	}
	var va vm.Addr
	if e.sem.SystemAllocated() {
		r, err := e.p.AllocIOBuffer(e.bufSize)
		if err != nil {
			return nil, err
		}
		va = r.Start()
	} else {
		va = e.txBufs[e.txNext]
		e.txNext = (e.txNext + 1) % len(e.txBufs)
	}
	if err := e.p.Write(va, data); err != nil {
		return nil, err
	}
	// Pad system-allocated sends to the full buffer so region caching
	// sizes stay uniform; application-allocated sends use exact lengths.
	length := len(data)
	if e.sem.SystemAllocated() {
		length = e.bufSize
	}
	out, err := e.p.Output(e.peer.port, e.sem, va, length)
	if err != nil {
		return nil, err
	}
	if !e.noCredits {
		e.credits--
	}
	return out, nil
}

// Credits returns the endpoint's available send credits.
func (e *Endpoint) Credits() int { return e.credits }

// Recv pops the oldest completed message, if any.
func (e *Endpoint) Recv() (*Message, bool) {
	if len(e.completed) == 0 {
		return nil, false
	}
	m := e.completed[0]
	e.completed = e.completed[1:]
	return m, true
}

// Pending reports completed-but-unconsumed messages.
func (e *Endpoint) Pending() int { return len(e.completed) }

// Port returns the endpoint's receive port.
func (e *Endpoint) Port() int { return e.port }

// Semantics returns the channel's buffering semantics.
func (e *Endpoint) Semantics() Semantics { return e.sem }
