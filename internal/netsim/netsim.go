// Package netsim simulates the Credit Net ATM network and its host
// adapters (Brustoloni & Steenkiste, OSDI '96, Sections 6.2 and 7).
//
// A Link connects two NICs point to point and delivers AAL5 frames after
// a transmission delay on the simulated clock. Each NIC implements one
// of the paper's three device input-buffering architectures:
//
//   - early demultiplexed: the controller keeps a separate list of
//     preposted input buffers per port and DMAs arriving data directly
//     into the right buffer (cut-through);
//   - pooled in-host: the controller allocates fixed-size overlay pages
//     from a private pool, without regard to the receiving request
//     (cut-through);
//   - outboard: the controller stages arriving data in its own memory
//     and DMAs it into host buffers after input completes
//     (store-and-forward).
//
// Data movement is real: payload bytes travel from the sender's
// referenced pages into the receiver's frames, so higher layers can
// verify integrity end to end.
package netsim

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// InputBuffering selects the adapter's input architecture.
type InputBuffering int

// Input buffering architectures (Section 6.2).
const (
	EarlyDemux InputBuffering = iota
	Pooled
	OutboardBuffering
)

var bufferingNames = [...]string{"early-demultiplexed", "pooled in-host", "outboard"}

func (b InputBuffering) String() string {
	if int(b) < len(bufferingNames) {
		return bufferingNames[b]
	}
	return "InputBuffering?"
}

// MaxFrame is the largest AAL5 frame payload the simulated adapters
// accept (the AAL5 limit is 64 KB minus trailer; the paper sweeps to the
// largest page multiple, 60 KB).
const MaxFrame = 65535

// Errors.
var (
	ErrFrameTooLarge = errors.New("netsim: frame exceeds AAL5 limit")
	ErrPoolDepleted  = errors.New("netsim: overlay pool depleted")
	ErrOutboardFull  = errors.New("netsim: outboard memory full")
	ErrNotAttached   = errors.New("netsim: NIC not attached to a link")
	ErrNoRoute       = errors.New("netsim: no fabric route for port")
)

// DMATarget is anything the adapter can DMA arriving data into: an
// in-place application buffer reference (vm.IORef), or a kernel system
// buffer. DMA bypasses page tables and protections by definition.
type DMATarget interface {
	// DMAWrite stores data at byte offset off within the target. On the
	// symbolic data plane the store is a descriptor splice. The target
	// must not keep data's bytes after DMAWrite returns: the adapter
	// hands a wire buffer back to the pool once it is copied out.
	DMAWrite(off int, data mem.Buf)
	// Len returns the target's capacity in bytes.
	Len() int
}

// Packet is a received AAL5 frame as handed to the host protocol stack.
// Exactly one of the placement fields is set, according to the NIC's
// input buffering architecture.
type Packet struct {
	Port    int // demultiplexing key (VC / connection)
	Length  int // payload bytes
	Arrival sim.Time

	// Direct is set under early demultiplexing when the payload was
	// DMAed into the preposted target; Target is that target.
	Direct bool
	Target DMATarget

	// Overlay holds the overlay frames carrying the payload under
	// pooled buffering. The payload starts at OverlayOff within the
	// first frame. The frames belong to the receiver, but the slice
	// listing them is the adapter's, borrowed until the receive upcall
	// returns.
	Overlay    []*mem.Frame
	OverlayOff int

	// Outboard holds the staged payload under outboard buffering.
	Outboard *OutboardBuffer
}

// Stats counts NIC events. At quiescence the receive side balances:
// RxFrames == Delivered + Dropped, and across an idle unidirectional
// link sender.TxFrames - sender.WireDrops + sender.WireDups ==
// receiver.RxFrames (single-frame mode; fragmentation counts datagrams,
// not fragments, in TxFrames/RxFrames).
type Stats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	Delivered          uint64 // frames handed to the protocol stack
	Dropped            uint64 // frames with no preposted buffer and no fallback
	PoolFailures       uint64
	Retried            uint64 // deliveries deferred by pool backpressure

	// Injected wire faults, counted on the transmitting NIC.
	WireDrops, WireDups, WireReorders, WireCorrupts uint64
}

// postedInput is one entry of a per-port early-demultiplexing buffer list.
type postedInput struct {
	target DMATarget
}

// attachment is whatever wiring a NIC transmits through: a
// point-to-point Link (two NICs, one engine — the paper's pairwise
// testbed) or a switch Fabric (N hosts, possibly one engine shard
// each). The NIC computes its own transmit serialization and the
// absolute delivery time; the attachment resolves the destination from
// (source NIC, port) and lands the frame there, crossing engine-shard
// boundaries if it must.
type attachment interface {
	wirePerByteUS() float64
	wireFixedUS() float64
	// transmitOK reports whether src may send on port (a fabric needs a
	// route; a link always can).
	transmitOK(src *NIC, port int) error
	// deliverFrame hands payload to the endpoint bound to (src, port)
	// at absolute time at on the destination's clock; wire reports
	// that the payload is a wire buffer the sender handed over.
	deliverFrame(src *NIC, port int, payload mem.Buf, wire bool, at sim.Time)
	// deliverFragment does the same for one fragment of a datagram.
	deliverFragment(src *NIC, f fragment, at sim.Time)
}

// NIC is a simulated network adapter.
type NIC struct {
	name      string
	eng       *sim.Engine
	att       attachment
	buffering InputBuffering

	pool       *OverlayPool
	overlayOff int          // placement offset of payload within the first overlay page
	overlay    []*mem.Frame // Packet.Overlay's storage for unfragmented frames
	outboard   *OutboardMemory

	ports []*nicPort // every port seen since construction, in first-use order
	rx    func(Packet)
	mtu   int

	busyUntil sim.Time // transmit-side serialization
	corruptAt int      // fault injection: flip this payload byte next tx
	inj       *faults.Injector
	stats     Stats
	tr        *trace.Tracer
}

// NICConfig configures a NIC.
type NICConfig struct {
	Name      string
	Buffering InputBuffering
	// Pool provides overlay pages; required for Pooled, optional
	// fallback otherwise.
	Pool *OverlayPool
	// OverlayOff is where the I/O module places payload within the
	// first overlay page (e.g. room left by unstripped headers). The
	// "preferred alignment" applications query for (Section 5.2).
	OverlayOff int
	// Outboard provides staging memory; required for OutboardBuffering.
	Outboard *OutboardMemory
	// MTU fragments datagrams larger than this into multiple packets
	// (0 = no fragmentation; single AAL5 frames, the paper's regime).
	MTU int
}

// NewNIC creates an adapter on the simulation engine.
func NewNIC(eng *sim.Engine, cfg NICConfig) (*NIC, error) {
	switch cfg.Buffering {
	case EarlyDemux:
	case Pooled:
		if cfg.Pool == nil {
			return nil, fmt.Errorf("netsim: pooled NIC %q needs an overlay pool", cfg.Name)
		}
	case OutboardBuffering:
		if cfg.Outboard == nil {
			return nil, fmt.Errorf("netsim: outboard NIC %q needs outboard memory", cfg.Name)
		}
	default:
		return nil, fmt.Errorf("netsim: unknown buffering %d", cfg.Buffering)
	}
	return &NIC{
		name:       cfg.Name,
		eng:        eng,
		buffering:  cfg.Buffering,
		pool:       cfg.Pool,
		overlayOff: cfg.OverlayOff,
		outboard:   cfg.Outboard,
		mtu:        cfg.MTU,
		corruptAt:  -1,
	}, nil
}

// Reset returns the adapter to its post-construction state: no posted
// inputs, no partial reassemblies, transmit path idle at time zero, no
// armed fault injection, zeroed counters. The overlay pool (if any) is
// reacquired from physical memory — the caller must have Reset the
// host's PhysMem first — and outboard staging memory is emptied. The
// attached link, peer, and receive upcall are preserved, and each
// port's record keeps its posted list's storage for the next run's
// postings.
func (n *NIC) Reset() {
	for _, p := range n.ports {
		clear(p.posted)
		p.posted = p.posted[:0]
		p.reasm = reassembly{}
	}
	n.busyUntil = 0
	n.corruptAt = -1
	n.stats = Stats{}
	if n.pool != nil {
		n.pool.Reacquire()
	}
	if n.outboard != nil {
		n.outboard.Reset()
	}
	n.SetTracer(nil)
	n.inj = nil
}

// SetFaultInjector attaches deterministic fault injection to the
// adapter's transmit and receive paths (nil detaches). Reset detaches;
// the testbed re-attaches its injector after component resets so that
// Reacquire and reconstruction never see injected faults.
func (n *NIC) SetFaultInjector(inj *faults.Injector) { n.inj = inj }

// FaultInjector returns the attached injector, nil when fault
// injection is off. Recovery layers gate transient-failure retries on
// its presence: without an injector the historical fail-fast semantics
// are untouched.
func (n *NIC) FaultInjector() *faults.Injector { return n.inj }

// SetTracer installs a structured-event tracer on the adapter (nil
// disables). The overlay pool and outboard staging memory share it.
func (n *NIC) SetTracer(tr *trace.Tracer) {
	n.tr = tr
	if n.pool != nil {
		n.pool.SetTracer(tr, trace.CatNet, "net.overlay")
	}
	if n.outboard != nil {
		n.outboard.SetTracer(tr)
	}
}

// MTU returns the fragmentation threshold (0 = none).
func (n *NIC) MTU() int { return n.mtu }

// Name returns the NIC name.
func (n *NIC) Name() string { return n.name }

// Buffering returns the input architecture.
func (n *NIC) Buffering() InputBuffering { return n.buffering }

// PreferredOffset returns the payload placement offset within the first
// input page — what Genie's alignment query interface reports to
// applications.
func (n *NIC) PreferredOffset() int { return n.overlayOff }

// Pool returns the NIC's overlay pool (nil unless pooled buffering or an
// early-demultiplexing fallback pool is configured). The host protocol
// stack returns or refills overlay pages through it at dispose time.
func (n *NIC) Pool() *OverlayPool { return n.pool }

// Outboard returns the NIC's adapter staging memory (nil unless
// outboard buffering is configured). Chaos harnesses read its free
// count for post-run conservation checks.
func (n *NIC) Outboard() *OutboardMemory { return n.outboard }

// Stats returns a snapshot of the NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// SetRxHandler installs the host protocol stack's receive upcall,
// invoked at frame delivery time on the simulated clock.
func (n *NIC) SetRxHandler(fn func(Packet)) { n.rx = fn }

// nicPort is one port's receive state: the early-demultiplexing
// buffers posted on it, oldest first, and its in-progress datagram
// reassembly. A NIC keeps one record per port it has seen, found by a
// linear search (a host uses a handful of ports), so posting and
// arrival touch no map and memory grows with the number of ports, not
// with their values. Records and their posted lists' storage survive
// Reset.
type nicPort struct {
	port   int
	posted []postedInput
	reasm  reassembly
}

// port returns port's record, or nil if the adapter has never seen
// port.
func (n *NIC) port(port int) *nicPort {
	for _, p := range n.ports {
		if p.port == port {
			return p
		}
	}
	return nil
}

// portRecord returns port's record, making it on first use.
func (n *NIC) portRecord(port int) *nicPort {
	if p := n.port(port); p != nil {
		return p
	}
	p := &nicPort{port: port}
	n.ports = append(n.ports, p)
	return p
}

// takePosted removes and returns the oldest buffer posted for port.
func (n *NIC) takePosted(port int) (DMATarget, bool) {
	p := n.port(port)
	if p == nil || len(p.posted) == 0 {
		return nil, false
	}
	post := p.posted[0]
	p.posted = slices.Delete(p.posted, 0, 1) // in place: the list keeps its capacity
	return post.target, true
}

// PostInput appends a buffer to the early-demultiplexing list for port.
// Posting is what makes in-place or system-aligned input possible; it is
// harmless (and ignored on arrival) for other architectures.
func (n *NIC) PostInput(port int, target DMATarget) {
	p := n.portRecord(port)
	p.posted = append(p.posted, postedInput{target: target})
}

// UnpostInput removes the oldest posted buffer for port (error recovery).
func (n *NIC) UnpostInput(port int) bool {
	_, ok := n.takePosted(port)
	return ok
}

// PostedInputs returns the number of buffers posted for port.
func (n *NIC) PostedInputs(port int) int {
	if p := n.port(port); p != nil {
		return len(p.posted)
	}
	return 0
}

// ReassemblyPending reports whether a fragmented datagram is partly
// received on port.
func (n *NIC) ReassemblyPending(port int) bool {
	p := n.port(port)
	return p != nil && p.reasm.pending
}

// Ports returns the ports the adapter has seen since construction, in
// first-use order.
func (n *NIC) Ports() []int {
	ports := make([]int, len(n.ports))
	for i, p := range n.ports {
		ports[i] = p.port
	}
	return ports
}

// CorruptNextTx arms single-shot fault injection: byte off of the next
// transmitted frame is bit-flipped on the wire. Checksumming experiments
// use it to exercise verification-failure paths.
func (n *NIC) CorruptNextTx(off int) { n.corruptAt = off }

// applyFault consumes an armed corruption, returning the payload to send.
// Mangling is inherently content-level: an armed fault resolves the
// payload to bytes on either plane.
func (n *NIC) applyFault(payload mem.Buf) mem.Buf {
	if n.corruptAt < 0 || n.corruptAt >= payload.Len() {
		return payload
	}
	off := n.corruptAt
	n.corruptAt = -1
	return corruptBuf(payload, off)
}

// corruptBuf returns payload with byte off bit-flipped.
func corruptBuf(payload mem.Buf, off int) mem.Buf {
	mangled := make([]byte, payload.Len())
	payload.ReadAt(mangled, 0)
	mangled[off] ^= 0x55
	return mem.BufBytes(mangled)
}

// injectWire applies the injector's per-frame wire faults at delivery
// scheduling time. It returns the possibly corrupted payload, the
// possibly delayed delivery time, whether the frame survives at all,
// and whether a duplicate delivery should be scheduled. Decision order
// (corrupt, drop, reorder, duplicate) is part of the deterministic
// replay contract.
func (n *NIC) injectWire(port int, payload mem.Buf, deliver sim.Time) (mem.Buf, sim.Time, bool, bool) {
	if n.inj == nil {
		return payload, deliver, true, false
	}
	if off, ok := n.inj.CorruptFrame(payload.Len()); ok {
		n.stats.WireCorrupts++
		n.faultEvent("fault.corrupt", port, payload.Len())
		payload = corruptBuf(payload, off)
	}
	if n.inj.DropFrame() {
		n.stats.WireDrops++
		n.faultEvent("fault.drop", port, payload.Len())
		return payload, deliver, false, false
	}
	if n.inj.ReorderFrame() {
		n.stats.WireReorders++
		n.faultEvent("fault.reorder", port, payload.Len())
		deliver = deliver.Add(sim.Duration(reorderDelayFactor * n.att.wireFixedUS()))
	}
	dup := n.inj.DuplicateFrame()
	if dup {
		n.stats.WireDups++
		n.faultEvent("fault.dup", port, payload.Len())
	}
	return payload, deliver, true, dup
}

// reorderDelayFactor scales the link's fixed latency into the extra
// delay an injected reordering adds, enough for back-to-back frames to
// overtake the delayed one.
const reorderDelayFactor = 2.5

// transmit sends one unfragmented frame. wire hands a bytes-plane
// payload drawn from mem.GetWire over to the frame, for the receiving
// adapter to return (NIC.handBack); a sender with a fault injector or an
// armed corruption keeps it out of the pool, since duplicates and
// mangled copies leave more than one holder or none that copies it out.
func (n *NIC) transmit(port int, payload mem.Buf, wire bool, onSent func()) error {
	if n.att == nil {
		return ErrNotAttached
	}
	if err := n.att.transmitOK(n, port); err != nil {
		return err
	}
	if payload.Len() > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, payload.Len())
	}
	wire = wire && n.inj == nil && n.corruptAt < 0
	payload = n.applyFault(payload)
	n.stats.TxFrames++
	n.stats.TxBytes += uint64(payload.Len())

	start := n.eng.Now().Max(n.busyUntil)
	ser := sim.Duration(n.att.wirePerByteUS() * float64(payload.Len()))
	n.busyUntil = start.Add(ser)

	if n.tr != nil {
		n.tr.Emit(trace.Event{At: start, Dur: ser, Phase: trace.Complete, Cat: trace.CatNet,
			Name: "net.tx", Port: port, Bytes: payload.Len()})
		n.tr.Emit(trace.Event{At: n.busyUntil, Dur: sim.Duration(n.att.wireFixedUS()), Phase: trace.Complete,
			Cat: trace.CatNet, Name: "net.deliver", Port: port, Bytes: payload.Len()})
	}
	if onSent != nil {
		n.eng.ScheduleAt(n.busyUntil, onSent)
	}
	deliver := n.busyUntil.Add(sim.Duration(n.att.wireFixedUS()))
	payload, deliver, survives, dup := n.injectWire(port, payload, deliver)
	if !survives {
		return nil
	}
	n.att.deliverFrame(n, port, payload, wire, deliver)
	if dup {
		n.att.deliverFrame(n, port, payload, false, deliver.Add(sim.Duration(n.att.wireFixedUS())))
	}
	return nil
}

// Backpressure bounds: with fault injection attached, a frame that
// finds the pool or outboard memory exhausted is redelivered a little
// later (as a credit-based controller would withhold the sender)
// instead of dropped, up to rxRetryLimit attempts.
const (
	rxRetryLimit   = 8
	rxRetryDelayUS = 4.0
)

// receive runs at frame arrival and routes the payload according to the
// input buffering architecture, then hands a wire payload back.
func (n *NIC) receive(port int, payload mem.Buf, wire bool) {
	n.handBack(payload, wire, n.receiveAttempt(port, payload, wire, 0))
}

// handBack returns a delivered frame's wire buffer to mem's pool: its
// bytes (mem.PutWire) or, on the symbolic plane, its run list
// (mem.PutWireBuf). It is the one place a wire buffer re-enters the
// pool, and it does so only when no one else can still see it:
//   - the sender handed the buffer over (wire: TransmitDatagramWire,
//     no injector or armed corruption at the sender);
//   - this adapter placed it (placed: an early-demultiplexed DMAWrite
//     or a pooled ScatterFrames copied it, and both have finished);
//   - no fault injector is attached here, so no deferred receive still
//     holds it;
//   - the adapter is not outboard: staging keeps the whole payload by
//     reference, and the staged buffer returns it at Free instead.
//
// Fragmented datagrams never get here (receiveFragment), and payloads
// passed to TransmitDatagramBuf are never wire. Everything else
// is left to the garbage collector.
func (n *NIC) handBack(payload mem.Buf, wire, placed bool) {
	if wire && placed && n.inj == nil && n.buffering != OutboardBuffering {
		putWire(payload)
	}
}

// putWire returns a wire buffer's bytes (mem.PutWire) or, on the
// symbolic plane, its run list (mem.PutWireBuf) to mem's pool.
func putWire(payload mem.Buf) {
	if payload.Symbolic() {
		mem.PutWireBuf(payload)
		return
	}
	mem.PutWire(payload.Resolve())
}

// receiveAttempt places and delivers one frame, reporting whether it
// was placed: copied into a posted target or overlay pages, or staged
// outboard by reference. A staged wire buffer goes back to the pool
// when the staged buffer is freed, so handBack skips outboard adapters.
func (n *NIC) receiveAttempt(port int, payload mem.Buf, wire bool, attempt int) bool {
	if attempt == 0 {
		n.stats.RxFrames++
		n.stats.RxBytes += uint64(payload.Len())
	}
	pkt := Packet{Port: port, Length: payload.Len(), Arrival: n.eng.Now()}

	switch n.buffering {
	case EarlyDemux:
		if target, ok := n.takePosted(port); ok {
			limit := min(payload.Len(), target.Len())
			target.DMAWrite(0, payload.Slice(0, limit))
			if n.tr != nil {
				n.tr.Emit(trace.Event{At: n.eng.Now(), Phase: trace.Instant, Cat: trace.CatNet,
					Name: "net.rx.dma", Port: port, Bytes: limit})
			}
			pkt.Direct = true
			pkt.Target = target
			pkt.Length = limit
			break
		}
		// No location information available: fall back to pooled overlay
		// buffering if a pool exists (Section 6.2.2), else drop.
		if n.pool == nil {
			n.drop(port, payload.Len())
			return false
		}
		if !n.intoPool(&pkt, port, payload, attempt) {
			return false
		}

	case Pooled:
		if !n.intoPool(&pkt, port, payload, attempt) {
			return false
		}

	case OutboardBuffering:
		if !n.intoOutboard(&pkt, port, payload, wire, attempt) {
			return false
		}
	}

	if n.rx != nil {
		n.stats.Delivered++
		n.rx(pkt)
		return true
	}
	// No protocol stack attached: return the staging resources so pool
	// conservation holds on this drop branch too.
	if pkt.Overlay != nil {
		n.pool.Put(pkt.Overlay...)
	}
	if pkt.Outboard != nil {
		pkt.Outboard.Free()
	}
	n.drop(port, payload.Len())
	return true
}

// intoPool places the payload into overlay pages, reporting false when
// the frame was consumed by a drop or a deferred redelivery.
func (n *NIC) intoPool(pkt *Packet, port int, payload mem.Buf, attempt int) bool {
	var frames []*mem.Frame
	err := ErrPoolDepleted
	if n.inj.DenyPool() {
		n.faultEvent("fault.pool", port, payload.Len())
	} else {
		frames, err = n.pool.GetAppend(n.overlay[:0], n.pool.PagesFor(n.overlayOff+payload.Len()))
	}
	if err != nil {
		n.stats.PoolFailures++
		if n.deferReceive(port, payload, attempt) {
			return false
		}
		n.drop(port, payload.Len())
		return false
	}
	n.overlay = frames
	mem.ScatterFrames(frames, n.overlayOff, payload)
	pkt.Overlay = frames
	pkt.OverlayOff = n.overlayOff
	return true
}

// intoOutboard stages the payload in outboard memory, reporting false
// when the frame was consumed by a drop or a deferred redelivery.
func (n *NIC) intoOutboard(pkt *Packet, port int, payload mem.Buf, wire bool, attempt int) bool {
	var buf *OutboardBuffer
	err := ErrOutboardFull
	if n.inj.DenyPool() {
		n.faultEvent("fault.pool", port, payload.Len())
	} else {
		buf, err = n.outboard.Alloc(payload.Len())
	}
	if err != nil {
		if n.deferReceive(port, payload, attempt) {
			return false
		}
		n.drop(port, payload.Len())
		return false
	}
	buf.writeAt(0, payload)
	buf.wire = wire && n.inj == nil
	pkt.Outboard = buf
	return true
}

// deferReceive applies backpressure under fault injection: the frame is
// redelivered after a short deterministic delay instead of dropped.
// Bounded, so persistent exhaustion still surfaces as a drop; inert
// without an injector, so fail-fast drop semantics of fault-free runs
// are untouched.
func (n *NIC) deferReceive(port int, payload mem.Buf, attempt int) bool {
	if n.inj == nil || attempt >= rxRetryLimit {
		return false
	}
	n.stats.Retried++
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.eng.Now(), Phase: trace.Instant, Cat: trace.CatNet,
			Name: "net.rx.retry", Port: port, Bytes: payload.Len()})
	}
	n.eng.Schedule(sim.Duration(rxRetryDelayUS*float64(attempt+1)), func() {
		n.receiveAttempt(port, payload, false, attempt+1)
	})
	return true
}

// drop accounts one dropped frame.
func (n *NIC) drop(port, bytes int) {
	n.stats.Dropped++
	n.dropEvent(port, bytes)
}

// dropEvent emits the adapter-level drop instant (no posted buffer, pool
// depletion, outboard exhaustion, or no protocol stack attached).
func (n *NIC) dropEvent(port, bytes int) {
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.eng.Now(), Phase: trace.Instant, Cat: trace.CatNet,
			Name: "net.rx.drop", Port: port, Bytes: bytes})
	}
}

// faultEvent emits an injected-fault instant (fault.drop, fault.dup,
// fault.reorder, fault.corrupt, fault.pool).
func (n *NIC) faultEvent(name string, port, bytes int) {
	if n.tr != nil {
		n.tr.Emit(trace.Event{At: n.eng.Now(), Phase: trace.Instant, Cat: trace.CatNet,
			Name: name, Port: port, Bytes: bytes})
	}
}

// Link is a full-duplex point-to-point connection between two NICs on
// one engine — the degenerate two-host attachment.
type Link struct {
	eng       *sim.Engine
	perByteUS float64 // serialization cost, us per payload byte
	fixedUS   float64 // propagation + device + interrupt + OS fixed path
	a, b      *NIC

	idle []*linkHop // delivered frames' records, reused by deliverFrame
}

// linkHop is one frame in flight on a Link. Its delivery callback is
// bound once; the record returns to the link's idle list when the frame
// arrives, and drops the payload then. Everything runs on the link's
// one engine, so the list needs no locking, and it holds at most as
// many records as frames were ever in flight at once.
type linkHop struct {
	l       *Link
	dst     *NIC
	port    int
	payload mem.Buf
	wire    bool
	fire    func()
}

// arrive hands the frame to the destination adapter after returning
// the record, so the receive upcall's own sends can reuse it.
func (h *linkHop) arrive() {
	dst, port, payload, wire := h.dst, h.port, h.payload, h.wire
	h.dst, h.payload = nil, mem.Buf{}
	h.l.idle = append(h.l.idle, h)
	dst.receive(port, payload, wire)
}

// NewLink creates a link with the given base-latency parameters (the
// cost model's Base() linear terms) and attaches both NICs.
func NewLink(eng *sim.Engine, perByteUS, fixedUS float64, a, b *NIC) *Link {
	l := &Link{eng: eng, perByteUS: perByteUS, fixedUS: fixedUS, a: a, b: b}
	a.att, b.att = l, l
	return l
}

// PerByteUS returns the serialization cost in microseconds per byte.
func (l *Link) PerByteUS() float64 { return l.perByteUS }

// FixedUS returns the fixed delivery latency in microseconds.
func (l *Link) FixedUS() float64 { return l.fixedUS }

func (l *Link) wirePerByteUS() float64 { return l.perByteUS }
func (l *Link) wireFixedUS() float64   { return l.fixedUS }

func (l *Link) peerOf(src *NIC) *NIC {
	if src == l.a {
		return l.b
	}
	return l.a
}

func (l *Link) transmitOK(*NIC, int) error { return nil }

func (l *Link) deliverFrame(src *NIC, port int, payload mem.Buf, wire bool, at sim.Time) {
	var h *linkHop
	if k := len(l.idle) - 1; k >= 0 {
		h = l.idle[k]
		l.idle = l.idle[:k]
	} else {
		h = &linkHop{l: l}
		h.fire = h.arrive
	}
	h.dst, h.port, h.payload, h.wire = l.peerOf(src), port, payload, wire
	l.eng.ScheduleAt(at, h.fire)
}

func (l *Link) deliverFragment(src *NIC, f fragment, at sim.Time) {
	dst := l.peerOf(src)
	l.eng.ScheduleAt(at, func() { dst.receiveFragment(f) })
}
