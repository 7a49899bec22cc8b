package netsim

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fragmentation support: with a nonzero MTU, TransmitDatagramBuf splits
// a datagram into MTU-sized packets, each carrying (offset, last)
// reassembly metadata, like IP over an AAL5 virtual circuit. Fragments
// of one datagram are sent back to back on the link; the paper's
// companion work ("Copy Emulation in Checksummed, Multiple-Packet
// Communication") studies exactly this multiple-packet regime.
//
// Reassembly follows the receiving NIC's input architecture:
//
//   - early demultiplexed: each fragment DMAs into the posted buffer at
//     its datagram offset — no reassembly buffer exists at all, which is
//     the architectural point of early demultiplexing;
//   - pooled: overlay pages for the whole datagram are taken on the
//     first fragment and fragments land at their offsets;
//   - outboard: the adapter stages the datagram and appends fragments.
//
// The frame is delivered to the host exactly once, when the last
// fragment arrives. Per-fragment trailer and cell-padding overhead adds
// one cell time of wire occupancy per extra fragment.

// fragment is one on-the-wire packet of a (possibly fragmented) datagram.
type fragment struct {
	port  int
	off   int  // byte offset within the datagram
	total int  // datagram length (known to AAL5 receivers at end of frame)
	last  bool // end-of-datagram marker (AAL5 user-to-user bit)
	data  mem.Buf
}

// reassembly tracks one in-progress datagram per port.
type reassembly struct {
	received int
	// Placement chosen on the first fragment:
	target   DMATarget    // early demux
	overlay  []*mem.Frame // pooled
	outboard *OutboardBuffer
}

// TransmitDatagramBuf serializes a datagram, fragmenting at the NIC's
// MTU if one is configured, and invokes onSent (if non-nil) when the
// last fragment has left the adapter; delivery to the peer includes the
// link's fixed latency. With MTU == 0 the datagram goes out as one AAL5
// frame. Delivery happens later on the simulated clock, so the caller
// must not change the buffer's bytes afterwards; the adapter never
// writes through them and never returns them to the wire pool.
func (n *NIC) TransmitDatagramBuf(port int, payload mem.Buf, onSent func()) error {
	return n.transmitDatagram(port, payload, false, onSent)
}

// TransmitDatagramWire is TransmitDatagramBuf for a wire buffer: a
// bytes-plane payload whose storage came from mem.GetWire (a symbolic
// payload is sent as by TransmitDatagramBuf). The buffer belongs to its
// frame from this call on: the caller never touches it again, and the
// receiving adapter returns it to the pool once it has copied it out
// (NIC.handBack). A fragmented datagram's buffer is never returned.
func (n *NIC) TransmitDatagramWire(port int, payload mem.Buf, onSent func()) error {
	return n.transmitDatagram(port, payload, true, onSent)
}

func (n *NIC) transmitDatagram(port int, payload mem.Buf, wire bool, onSent func()) error {
	if n.mtu <= 0 || payload.Len() <= n.mtu {
		return n.transmit(port, payload, wire, onSent)
	}
	if n.att == nil {
		return ErrNotAttached
	}
	if err := n.att.transmitOK(n, port); err != nil {
		return err
	}
	if payload.Len() > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, payload.Len())
	}
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(payload.Len())
	payload = n.applyFault(payload)

	start := n.eng.Now().Max(n.busyUntil)
	total := payload.Len()
	cellTime := n.att.wirePerByteUS() * 48 // per-fragment trailer/padding tax

	off := 0
	for off < total {
		end := min(off+n.mtu, total)
		frag := fragment{
			port: port, off: off, total: total, last: end == total,
			data: payload.Slice(off, end-off),
		}
		wire := n.att.wirePerByteUS() * float64(frag.data.Len())
		if off > 0 {
			wire += cellTime
		}
		if n.tr != nil {
			n.tr.Emit(trace.Event{At: start, Dur: sim.Duration(wire), Phase: trace.Complete,
				Cat: trace.CatNet, Name: "net.tx.frag", Port: port, Bytes: frag.data.Len()})
		}
		start = start.Add(sim.Duration(wire))
		deliver := start.Add(sim.Duration(n.att.wireFixedUS()))
		if frag.last {
			if n.tr != nil {
				n.tr.Emit(trace.Event{At: start, Dur: sim.Duration(n.att.wireFixedUS()), Phase: trace.Complete,
					Cat: trace.CatNet, Name: "net.deliver", Port: port, Bytes: total})
			}
			if onSent != nil {
				n.eng.ScheduleAt(start, onSent)
			}
		}
		data, fragDeliver, survives, dup := n.injectWire(port, frag.data, deliver)
		frag.data = data
		if survives {
			n.att.deliverFragment(n, frag, fragDeliver)
			if dup {
				n.att.deliverFragment(n, frag, fragDeliver.Add(sim.Duration(n.att.wireFixedUS())))
			}
		}
		off = end
	}
	n.busyUntil = start
	return nil
}

// receiveFragment places one fragment according to the input
// architecture and delivers the datagram on the last fragment.
func (n *NIC) receiveFragment(f fragment) {
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.eng.Now(), Phase: trace.Instant, Cat: trace.CatNet,
			Name: "net.rx.frag", Port: f.port, Bytes: f.data.Len()})
	}
	r := n.reasm[f.port]
	if r != nil && f.off == 0 {
		// A fresh datagram head while a reassembly is pending means the
		// previous datagram's tail was lost on the wire: flush the stale
		// reassembly so a retransmission cannot wedge behind it.
		n.flushReassembly(f.port, r)
		r = nil
	}
	if r == nil {
		r = &reassembly{}
		n.reasm[f.port] = r
		// Choose placement once, on the first fragment.
		switch n.buffering {
		case EarlyDemux:
			if q := n.posted[f.port]; len(q) > 0 {
				r.target = q[0].target
				n.posted[f.port] = q[1:]
			} else if n.pool == nil {
				// No location information and no fallback pool: the
				// datagram cannot be placed; drop all its fragments.
				r.target = nil
			}
			if r.target == nil && n.pool != nil {
				frames, err := n.pool.Get(n.pool.PagesFor(n.overlayOff + f.total))
				if err != nil {
					n.stats.PoolFailures++
				} else {
					r.overlay = frames
				}
			}
		case Pooled:
			frames, err := n.pool.Get(n.pool.PagesFor(n.overlayOff + f.total))
			if err != nil {
				n.stats.PoolFailures++
			} else {
				r.overlay = frames
			}
		case OutboardBuffering:
			buf, err := n.outboard.Alloc(f.total)
			if err == nil {
				r.outboard = buf
			}
		}
	}

	placed := true
	switch {
	case r.target != nil:
		limit := r.target.Len()
		if f.off < limit {
			end := min(f.off+f.data.Len(), limit)
			r.target.DMAWrite(f.off, f.data.Slice(0, end-f.off))
		}
	case r.overlay != nil:
		mem.ScatterFrames(r.overlay, n.overlayOff+f.off, f.data)
	case r.outboard != nil:
		r.outboard.writeAt(f.off, f.data)
	default:
		placed = false
	}
	r.received += f.data.Len()

	if !f.last {
		return
	}
	delete(n.reasm, f.port)
	n.stats.RxFrames++
	n.stats.RxBytes += uint64(f.total)
	if !placed || n.rx == nil {
		n.stats.Dropped++
		if r.overlay != nil {
			n.pool.Put(r.overlay...)
		}
		if r.outboard != nil {
			r.outboard.Free()
		}
		return
	}
	pkt := Packet{Port: f.port, Length: f.total, Arrival: n.eng.Now()}
	switch {
	case r.target != nil:
		pkt.Direct = true
		pkt.Target = r.target
		pkt.Length = min(f.total, r.target.Len())
	case r.overlay != nil:
		pkt.Overlay = r.overlay
		pkt.OverlayOff = n.overlayOff
	case r.outboard != nil:
		pkt.Outboard = r.outboard
	}
	n.stats.Delivered++
	n.rx(pkt)
}

// flushReassembly drops a partial reassembly and returns its staging
// resources to their pools.
func (n *NIC) flushReassembly(port int, r *reassembly) {
	delete(n.reasm, port)
	n.stats.Dropped++
	n.dropEvent(port, r.received)
	if r.overlay != nil {
		n.pool.Put(r.overlay...)
	}
	if r.outboard != nil {
		r.outboard.Free()
	}
}

// FlushReassemblies drops every pending partial reassembly, returning
// staged resources. Chaos harnesses call it at teardown so a datagram
// whose tail was still in flight cannot fail pool-conservation checks.
func (n *NIC) FlushReassemblies() {
	for port, r := range n.reasm {
		n.flushReassembly(port, r)
	}
}
