package core

import "encoding/binary"

// RPC over a reliable channel: the rpcHeaderLen correlation framing
// rides inside reliable data frames, so calls survive injected drops,
// duplicates, and corruption — the retransmit layer recovers losses
// and the dedup table keeps each request and response from executing
// or completing twice.

// ReliableRPCClient issues calls over a reliable endpoint.
type ReliableRPCClient struct {
	r       *Reliable
	nextID  uint32
	pending map[uint32]*Call
	orphans uint64
}

// NewReliableRPCClient wraps the client side of a reliable channel.
func NewReliableRPCClient(r *Reliable) *ReliableRPCClient {
	c := &ReliableRPCClient{r: r, pending: make(map[uint32]*Call)}
	r.OnDeliver(func(_ uint32, data []byte) {
		if len(data) < rpcHeaderLen {
			c.orphans++
			return
		}
		id := binary.BigEndian.Uint32(data)
		n := int(binary.BigEndian.Uint32(data[4:]))
		call, ok := c.pending[id]
		if !ok {
			c.orphans++
			return
		}
		if n > len(data)-rpcHeaderLen {
			n = len(data) - rpcHeaderLen
		}
		delete(c.pending, id)
		call.Reply = append([]byte(nil), data[rpcHeaderLen:rpcHeaderLen+n]...)
		call.Done = true
	})
	return c
}

// Go issues an asynchronous call over the reliable channel.
func (c *ReliableRPCClient) Go(req []byte) (*Call, error) {
	c.nextID++
	id := c.nextID
	msg := make([]byte, rpcHeaderLen+len(req))
	binary.BigEndian.PutUint32(msg, id)
	binary.BigEndian.PutUint32(msg[4:], uint32(len(req)))
	copy(msg[rpcHeaderLen:], req)
	call := &Call{ID: id}
	if _, err := c.r.Send(msg); err != nil {
		return nil, err
	}
	c.pending[id] = call
	return call, nil
}

// Outstanding reports calls awaiting responses.
func (c *ReliableRPCClient) Outstanding() int { return len(c.pending) }

// Orphans reports delivered frames that could not be correlated.
func (c *ReliableRPCClient) Orphans() uint64 { return c.orphans }

// ServeReliableRPC turns a reliable endpoint into an RPC server. req is
// borrowed for the handler call, as OnDeliver payloads are. Response
// send failures (give-up after MaxAttempts shows in the
// reliable stats, not here) are reported through errFn, which may be
// nil.
func ServeReliableRPC(r *Reliable, handler func(req []byte) []byte, errFn func(error)) {
	r.OnDeliver(func(_ uint32, data []byte) {
		if len(data) < rpcHeaderLen {
			return // not correlatable; client's retransmit already gave us integrity
		}
		id := binary.BigEndian.Uint32(data)
		n := int(binary.BigEndian.Uint32(data[4:]))
		if n > len(data)-rpcHeaderLen {
			n = len(data) - rpcHeaderLen
		}
		resp := handler(data[rpcHeaderLen : rpcHeaderLen+n])
		msg := make([]byte, rpcHeaderLen+len(resp))
		binary.BigEndian.PutUint32(msg, id)
		binary.BigEndian.PutUint32(msg[4:], uint32(len(resp)))
		copy(msg[rpcHeaderLen:], resp)
		if _, err := r.Send(msg); err != nil && errFn != nil {
			errFn(err)
		}
	})
}
