package netsim

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Fabric is a store-and-forward switch connecting N hosts, each with
// its own NIC and (in cluster mode) its own engine shard. Where a Link
// hardwires two peers, the fabric routes by virtual circuit: every
// (source host, wire port) pair maps to one destination host, matching
// the ATM model where a port number names a connection, not a machine.
//
// A transmitted frame serializes on the sender's NIC exactly as on a
// Link and reaches the switch after the fixed wire latency. The switch
// then forwards it through the destination's egress port, which
// serializes frames one at a time: concurrent senders converging on one
// host (incast) queue behind each other on that port's busyUntil. The
// egress state lives on the destination's shard and is only touched by
// events running there, so it needs no locking; contention is resolved
// in the destination engine's deterministic (time, seq) order.
//
// Cross-shard hops go through the xpost function — sim.Cluster.Post in
// parallel runs, or a direct ScheduleAt for a single shared engine —
// always at times at least the fixed wire latency in the future, which
// is exactly the cluster's conservative lookahead.
type Fabric struct {
	perByteUS float64
	fixedUS   float64
	ports     []*fabricPort
	index     map[*NIC]int
	routes    map[fabricKey]int
	xpost     func(src, dst int, at sim.Time, fn func())
}

// fabricPort is one host's egress port on the switch. busyUntil is
// owned by the destination shard: it is read and written only by
// forwarding events executing on eng.
type fabricPort struct {
	nic       *NIC
	eng       *sim.Engine
	busyUntil sim.Time
}

// fabricKey identifies a virtual circuit endpoint: a wire port number
// as seen from one source host.
type fabricKey struct {
	host int
	port int
}

// NewFabric creates a switch with the given wire parameters. xpost
// carries closures across shard boundaries; for a single shared engine
// pass nil and the fabric schedules directly on the destination's
// engine.
func NewFabric(perByteUS, fixedUS float64, xpost func(src, dst int, at sim.Time, fn func())) *Fabric {
	f := &Fabric{
		perByteUS: perByteUS,
		fixedUS:   fixedUS,
		index:     make(map[*NIC]int),
		routes:    make(map[fabricKey]int),
	}
	if xpost == nil {
		xpost = func(src, dst int, at sim.Time, fn func()) {
			f.ports[dst].eng.ScheduleAt(at, fn)
		}
	}
	f.xpost = xpost
	return f
}

// Attach connects a NIC (running on eng) to the switch and returns its
// host index.
func (f *Fabric) Attach(eng *sim.Engine, nic *NIC) int {
	id := len(f.ports)
	f.ports = append(f.ports, &fabricPort{nic: nic, eng: eng})
	f.index[nic] = id
	nic.att = f
	return id
}

// Route installs the virtual circuit (srcHost, port) → dstHost. Both
// directions of a channel need their own routes, one per wire port.
func (f *Fabric) Route(srcHost, port, dstHost int) error {
	if srcHost < 0 || srcHost >= len(f.ports) || dstHost < 0 || dstHost >= len(f.ports) {
		return fmt.Errorf("netsim: fabric route %d→%d out of range (%d hosts)", srcHost, dstHost, len(f.ports))
	}
	f.routes[fabricKey{host: srcHost, port: port}] = dstHost
	return nil
}

// Reset returns the switch to its post-construction state with every
// attachment preserved: all virtual-circuit routes are forgotten and
// every egress port is idle at time zero. Callers re-Route as they
// reopen channels; Connect-style port allocators that also rewind hand
// out the identical (host, port) circuits a fresh fabric would, so a
// Reset fabric forwards bit-identically to a new one.
func (f *Fabric) Reset() {
	clear(f.routes)
	for _, p := range f.ports {
		p.busyUntil = 0
	}
}

func (f *Fabric) wirePerByteUS() float64 { return f.perByteUS }
func (f *Fabric) wireFixedUS() float64   { return f.fixedUS }

func (f *Fabric) transmitOK(src *NIC, port int) error {
	s, ok := f.index[src]
	if !ok {
		return ErrNotAttached
	}
	if _, ok := f.routes[fabricKey{host: s, port: port}]; !ok {
		return fmt.Errorf("%w: host %d port %d", ErrNoRoute, s, port)
	}
	return nil
}

// fabricHop is one frame in flight through the switch. Its two
// callbacks are bound once: forward runs on the destination shard when
// the frame reaches the switch, deliver when it has left the egress
// port. The record is taken on the sending shard and returned on the
// destination shard, so it lives in a sync.Pool, which is safe across
// shard goroutines; it drops its payload before going back.
type fabricHop struct {
	f       *Fabric
	d, port int
	payload mem.Buf
	wire    bool
	forward func()
	deliver func()
}

var fabricHops sync.Pool

func (f *Fabric) deliverFrame(src *NIC, port int, payload mem.Buf, wire bool, at sim.Time) {
	s := f.index[src]
	h, _ := fabricHops.Get().(*fabricHop)
	if h == nil {
		h = &fabricHop{}
		h.forward, h.deliver = h.forwardFrame, h.arrive
	}
	h.f, h.d, h.port, h.payload, h.wire = f, f.routes[fabricKey{host: s, port: port}], port, payload, wire
	f.xpost(s, h.d, at, h.forward)
}

// forwardFrame runs on the destination shard when the frame reaches the
// switch: it claims the egress port, serializes the frame through it,
// and delivers to the NIC when the last byte has left the port.
func (h *fabricHop) forwardFrame() {
	p := h.f.ports[h.d]
	start := p.eng.Now().Max(p.busyUntil)
	p.busyUntil = start.Add(sim.Duration(h.f.perByteUS * float64(h.payload.Len())))
	p.eng.ScheduleAt(p.busyUntil, h.deliver)
}

// arrive hands the frame to the destination adapter, returning the
// record first.
func (h *fabricHop) arrive() {
	nic, port, payload, wire := h.f.ports[h.d].nic, h.port, h.payload, h.wire
	h.f, h.payload = nil, mem.Buf{}
	fabricHops.Put(h)
	nic.receive(port, payload, wire)
}
