package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/trace"
)

// RPC over a message channel: requests carry a 4-byte correlation id, a
// reactive server handles them at arrival time on the simulated clock,
// and the client matches responses to outstanding calls. This is the
// request-response shape of the paper's motivating distributed
// applications (parallel file system RPCs, cluster coordination),
// running over any buffering semantics.

// rpcHeaderLen prefixes each message with a 4-byte correlation id and a
// 4-byte payload length. The explicit length matters because
// system-allocated transports pad messages to whole buffers (regions are
// page-granular), so the wire length alone does not bound the payload.
const rpcHeaderLen = 8

// ErrRPCShortMessage reports a frame too short to carry the RPC header.
var ErrRPCShortMessage = errors.New("core: RPC message shorter than its header")

// Call is one outstanding RPC.
type Call struct {
	ID    uint32
	Done  bool
	Reply []byte
	Err   error
}

// RPCClient issues calls over a channel endpoint.
type RPCClient struct {
	ep      *Endpoint
	nextID  uint32
	pending map[uint32]*Call
}

// NewRPCClient wraps an endpoint as the client side of an RPC
// connection, installing the reactive response handler.
func NewRPCClient(ep *Endpoint) *RPCClient {
	c := &RPCClient{ep: ep, pending: make(map[uint32]*Call)}
	ep.OnMessage(func(m *Message) {
		defer func() { _ = m.Release() }()
		data := m.Data()
		if len(data) < rpcHeaderLen {
			c.orphan(len(data)) // not correlatable
			return
		}
		id := binary.BigEndian.Uint32(data)
		n := int(binary.BigEndian.Uint32(data[4:]))
		call, ok := c.pending[id]
		if !ok {
			c.orphan(len(data)) // stale or duplicate response
			return
		}
		if n > len(data)-rpcHeaderLen {
			n = len(data) - rpcHeaderLen
		}
		delete(c.pending, id)
		call.Reply = append([]byte(nil), data[rpcHeaderLen:rpcHeaderLen+n]...)
		call.Err = m.Err()
		call.Done = true
	})
	return c
}

// Go issues an asynchronous call; the returned Call completes during a
// subsequent simulation run. Backpressure surfaces as ErrChannelFull.
func (c *RPCClient) Go(req []byte) (*Call, error) {
	c.nextID++
	id := c.nextID
	msg := make([]byte, rpcHeaderLen+len(req))
	binary.BigEndian.PutUint32(msg, id)
	binary.BigEndian.PutUint32(msg[4:], uint32(len(req)))
	copy(msg[rpcHeaderLen:], req)
	call := &Call{ID: id}
	if err := c.ep.Send(msg); err != nil {
		return nil, err
	}
	c.pending[id] = call
	return call, nil
}

// orphan accounts a response that cannot be correlated to an
// outstanding call — a frame too short to carry the header, or an id
// that is stale or already answered. These used to vanish silently,
// hiding protocol bugs; now they count in Stats.RPCOrphans and emit an
// rpc.orphan instant when tracing is attached.
func (c *RPCClient) orphan(bytes int) {
	g := c.ep.p.g
	g.stats.RPCOrphans++
	if g.tr != nil {
		g.tr.Instant(trace.CatOp, "rpc.orphan", bytes)
	}
}

// Outstanding reports calls awaiting responses.
func (c *RPCClient) Outstanding() int { return len(c.pending) }

// ServeRPC turns an endpoint into an RPC server: handler runs at request
// arrival on the simulated clock and its return value is sent back with
// the request's correlation id. req is borrowed for the call (the
// message is released afterwards), so a handler that keeps it copies
// it. Handler errors and send failures are reported through errFn
// (which may be nil).
func ServeRPC(ep *Endpoint, handler func(req []byte) []byte, errFn func(error)) {
	report := func(err error) {
		if errFn != nil && err != nil {
			errFn(err)
		}
	}
	ep.OnMessage(func(m *Message) {
		data := m.Data()
		reqErr := m.Err()
		if reqErr == nil && len(data) < rpcHeaderLen {
			reqErr = fmt.Errorf("%w: %d bytes", ErrRPCShortMessage, len(data))
		}
		if reqErr != nil {
			report(reqErr)
			report(m.Release())
			return
		}
		id := binary.BigEndian.Uint32(data)
		n := int(binary.BigEndian.Uint32(data[4:]))
		if n > len(data)-rpcHeaderLen {
			n = len(data) - rpcHeaderLen
		}
		resp := handler(data[rpcHeaderLen : rpcHeaderLen+n])
		// Release first: the reply consumes a send credit that the
		// request's buffer repost frees on the requester's side, and the
		// request data has already been copied out of the buffer.
		report(m.Release())
		msg := make([]byte, rpcHeaderLen+len(resp))
		binary.BigEndian.PutUint32(msg, id)
		binary.BigEndian.PutUint32(msg[4:], uint32(len(resp)))
		copy(msg[rpcHeaderLen:], resp)
		if err := ep.Send(msg); err != nil {
			report(fmt.Errorf("core: RPC response: %w", err))
		}
	})
}
