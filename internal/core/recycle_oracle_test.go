package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/vm"
)

// checkHostMatchesFresh compares a just-Reset host with a freshly built
// one: every frame's state (free, attached, references, wires), the
// physical memory's Stats and high-water mark, each pool's free list as
// frame ids in order, and the physical free list in allocation order.
// Failures name the host, pool and frame. It drains both hosts' free
// lists and pools to read them, so the caller must Reset the recycled
// host again before using it.
func checkHostMatchesFresh(t *testing.T, label string, h, fresh *Host) {
	t.Helper()
	pm, fpm := h.Phys, fresh.Phys
	for id := range pm.NumFrames() {
		g, w := pm.Frame(mem.FrameID(id)), fpm.Frame(mem.FrameID(id))
		if g.Free() != w.Free() || g.Attached() != w.Attached() || g.InRefs() != w.InRefs() ||
			g.OutRefs() != w.OutRefs() || g.WireCount() != w.WireCount() {
			t.Fatalf("%s host %s frame %d after Reset: %v; fresh host: %v", label, h.Name, id, g, w)
		}
	}
	if g, w := pm.Stats(), fpm.Stats(); g != w {
		t.Fatalf("%s host %s memory stats after Reset %+v, fresh host %+v", label, h.Name, g, w)
	}
	if g, w := pm.HighWater(), fpm.HighWater(); g != w {
		t.Fatalf("%s host %s memory high-water mark after Reset %d, fresh host %d", label, h.Name, g, w)
	}
	if g, w := h.Sys.String(), fresh.Sys.String(); g != w || h.Sys.Stats() != fresh.Sys.Stats() {
		t.Fatalf("%s host %s VM after Reset %s %+v, fresh host %s %+v", label, h.Name, g, h.Sys.Stats(), w, fresh.Sys.Stats())
	}
	if err := h.Sys.CheckSpares(); err != nil {
		t.Fatalf("%s host %s VM storage after Reset: %v", label, h.Name, err)
	}
	type poolPair struct {
		name        string
		pool, fresh *netsim.OverlayPool
	}
	pools := []poolPair{{"kernel pool", h.Genie.KernelPool(), fresh.Genie.KernelPool()}}
	if p := h.NIC.Pool(); p != nil {
		pools = append(pools, poolPair{"overlay pool", p, fresh.NIC.Pool()})
	}
	for _, p := range pools {
		g, err := p.pool.Get(p.pool.Free())
		if err != nil {
			t.Fatal(err)
		}
		w, err := p.fresh.Get(p.fresh.Free())
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(frameIDs(g), frameIDs(w)); i >= 0 {
			t.Fatalf("%s host %s %s free list after Reset %v, fresh host %v: first difference at entry %d",
				label, h.Name, p.name, frameIDs(g), frameIDs(w), i)
		}
	}
	g, err := pm.AllocN(nil, pm.FreeFrames())
	if err != nil {
		t.Fatal(err)
	}
	w, err := fpm.AllocN(nil, fpm.FreeFrames())
	if err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(frameIDs(g), frameIDs(w)); i >= 0 {
		t.Fatalf("%s host %s free list after Reset differs from a fresh host's at entry %d: frame %v, fresh frame %v",
			label, h.Name, i, at(frameIDs(g), i), at(frameIDs(w), i))
	}
}

func frameIDs(fs []*mem.Frame) []mem.FrameID {
	ids := make([]mem.FrameID, len(fs))
	for i, f := range fs {
		ids[i] = f.ID()
	}
	return ids
}

// firstDiff returns the first index where a and b differ, -1 if equal.
func firstDiff(a, b []mem.FrameID) int {
	if slices.Equal(a, b) {
		return -1
	}
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// at formats entry i of ids, or "none" past its end.
func at(ids []mem.FrameID, i int) string {
	if i < len(ids) {
		return fmt.Sprint(ids[i])
	}
	return "none"
}

// echoInFlight has the receiver send its input buffer back to the
// sender under the same semantics without running the engine, so a
// Reset finds the buffer's pages referenced and, under the
// non-emulated semantics, wired. After move input those pages are pool
// pages mapped into the receiver's region, so this is how a run leaves
// a pool page in a state its pool must repair on Reacquire.
func echoInFlight(t *testing.T, receiver *Process, sem Semantics, in *InputOp) {
	t.Helper()
	if _, err := receiver.Output(2, sem, in.Addr, in.N); err != nil {
		t.Fatalf("%v echo output: %v", sem, err)
	}
}

// TestTestbedResetMatchesFresh is the recycled-vs-fresh oracle for the
// pools' boot frames and the port records: under every input scheme and
// all eight semantics, aligned and at offset 1000, it runs a transfer,
// posts an input for an echo of the received buffer and starts the echo
// without completing it, Resets the testbed and requires each host to
// match a freshly built testbed frame by frame, pool by pool, in its
// free list and port by port.
func TestTestbedResetMatchesFresh(t *testing.T) {
	const length = 3*4096 + 500
	schemes := []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering}
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			testbedResetMatchesFresh(t, TestbedConfig{Buffering: scheme, Plane: mem.Symbolic}, length)
		})
	}
}

func testbedResetMatchesFresh(t *testing.T, cfg TestbedConfig, length int) {
	t.Helper()
	tb, err := NewTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range AllSemantics() {
		for _, off := range []int{0, 1000} {
			label := fmt.Sprintf("%v offset %d:", sem, off)
			transferThenEcho(t, tb, sem, off, length)
			if err := tb.Reset(); err != nil {
				t.Fatal(err)
			}
			for _, h := range []*Host{tb.A, tb.B} {
				if err := h.Phys.CheckInvariants(); err != nil {
					t.Fatalf("%s host %s memory invariants after Reset: %v", label, h.Name, err)
				}
			}
			fresh, err := NewTestbed(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkPortsMatchFresh(t, label, tb.A, fresh.A)
			checkPortsMatchFresh(t, label, tb.B, fresh.B)
			checkHostMatchesFresh(t, label, tb.A, fresh.A)
			checkHostMatchesFresh(t, label, tb.B, fresh.B)
			if err := tb.Reset(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkPortsMatchFresh compares a just-Reset host's port records with a
// fresh host's, port by port over every port either has seen: the
// buffers posted on the adapter and the inputs queued in Genie. The
// recycled host keeps its records, so it must have some.
func checkPortsMatchFresh(t *testing.T, label string, h, fresh *Host) {
	t.Helper()
	ports := h.NIC.Ports()
	for _, pq := range h.Genie.ports {
		ports = append(ports, pq.port)
	}
	ports = append(ports, fresh.NIC.Ports()...)
	if len(ports) == 0 {
		t.Fatalf("%s host %s kept no port records; the run used ports", label, h.Name)
	}
	for _, p := range ports {
		if g, w := h.NIC.PostedInputs(p), fresh.NIC.PostedInputs(p); g != w {
			t.Fatalf("%s host %s port %d: %d buffers posted on the adapter after Reset, fresh host %d", label, h.Name, p, g, w)
		}
		if g, w := h.Genie.PostedInputs(p), fresh.Genie.PostedInputs(p); g != w {
			t.Fatalf("%s host %s port %d: %d inputs queued after Reset, fresh host %d", label, h.Name, p, g, w)
		}
	}
}

// transferThenEcho runs one transfer of length bytes from host A to
// host B at the given buffer offset (application-allocated semantics;
// system-allocated buffers start on a page), posts an input for the
// echo on host A's port 2 and leaves the echo in flight.
func transferThenEcho(t *testing.T, tb *Testbed, sem Semantics, off, length int) {
	t.Helper()
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	payload := make([]byte, length)
	for i := range payload {
		payload[i] = byte(i*7 + off)
	}
	var srcVA, dstVA vm.Addr
	if sem.SystemAllocated() {
		r, err := sender.AllocIOBuffer(length)
		if err != nil {
			t.Fatal(err)
		}
		srcVA = r.Start()
	} else {
		ps := tb.Model.Platform.PageSize
		va, err := sender.Brk(length + 2*ps)
		if err != nil {
			t.Fatal(err)
		}
		dva, err := receiver.Brk(length + 2*ps)
		if err != nil {
			t.Fatal(err)
		}
		srcVA, dstVA = va+vm.Addr(off), dva+vm.Addr(off)
	}
	if err := sender.Write(srcVA, payload); err != nil {
		t.Fatal(err)
	}
	_, in, err := tb.Transfer(sender, receiver, 1, sem, srcVA, dstVA, length)
	if err != nil {
		t.Fatalf("%v offset %d transfer: %v", sem, off, err)
	}
	if _, err := sender.Input(2, sem, srcVA, in.N); err != nil {
		t.Fatalf("%v offset %d echo input: %v", sem, off, err)
	}
	echoInFlight(t, receiver, sem, in)
	if tb.A.Genie.PostedInputs(2) != 1 {
		t.Fatalf("%v offset %d: the echo's input is not queued", sem, off)
	}
}

// TestClusterResetMatchesFresh is the cluster half of the oracle: each
// channel of a ring carries its own semantics (all eight in turn) under
// every input scheme. A reliable request/response point runs to
// completion and leaves a second round of requests in flight, then one
// round of plain channel sends completes and a second is left in
// flight; each host of the Reset cluster must match a freshly built
// one, port by port too, and every channel record the host keeps for
// the next run must be back in the state the host made it in.
func TestClusterResetMatchesFresh(t *testing.T) {
	const hosts = 8
	schemes := []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering}
	for _, scheme := range schemes {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := ClusterConfig{
				TestbedConfig: TestbedConfig{Buffering: scheme, Plane: mem.Symbolic, FramesPerHost: 256},
				Topo:          topo.Ring(hosts),
				Workers:       1,
			}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := range 2 {
				reliablePointThenInFlight(t, c, cfg)
				clusterRoundThenInFlight(t, c, cfg)
				if err := c.Reset(); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("round %d:", round)
				for i, h := range c.Hosts {
					if err := h.Phys.CheckInvariants(); err != nil {
						t.Fatalf("round %d host %d memory invariants after Reset: %v", round, i, err)
					}
					checkRecordsPristine(t, label, h)
					checkPortsMatchFresh(t, label, h, fresh.Hosts[i])
					checkHostMatchesFresh(t, label, h, fresh.Hosts[i])
				}
				if err := c.Reset(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// reliablePointThenInFlight opens a reliable channel on every ring pair,
// one of the eight semantics each, and runs a closed-loop exchange to
// completion: every request is echoed as a response by the peer. Then
// it sends a second round of requests and leaves it in flight, so the
// Reset finds send records with armed timers, outputs on the wire and
// window slots mid-receive.
func reliablePointThenInFlight(t *testing.T, c *Cluster, cfg ClusterConfig) {
	t.Helper()
	procs := make([]*Process, cfg.Topo.Hosts)
	for i := range procs {
		procs[i] = c.Host(i).Genie.NewProcess()
	}
	sems := AllSemantics()
	var clients []*Reliable
	responses := 0
	for i, p := range cfg.Topo.Pairs {
		cli, srv, err := c.ConnectReliable(procs[p[0]], procs[p[1]], sems[i%len(sems)], 2048, 2, ReliableConfig{RTO: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		srv.OnDeliver(func(_ uint32, payload []byte) {
			if _, err := srv.Send(payload); err != nil {
				t.Errorf("echo: %v", err)
			}
		})
		cli.OnDeliver(func(uint32, []byte) { responses++ })
		clients = append(clients, cli)
	}
	send := func(round int) {
		for i, r := range clients {
			for k := range 2 {
				payload := make([]byte, 100+i*150+k*700+round)
				for j := range payload {
					payload[j] = byte(i + j + k + round)
				}
				if _, err := r.Send(payload); err != nil {
					t.Fatalf("reliable round %d channel %d: %v", round, i, err)
				}
			}
		}
	}
	send(0)
	c.Run()
	if want := 2 * len(clients); responses != want {
		t.Fatalf("reliable point: %d responses, want %d", responses, want)
	}
	send(1)
}

// checkRecordsPristine requires every channel record host h keeps
// across its Reset — window slots, output records, reliable send
// records — to be back in the state the host made it in, each held
// once, with its bound callbacks intact. Failures name the host and
// the record.
func checkRecordsPristine(t *testing.T, label string, h *Host) {
	t.Helper()
	rc := &h.Genie.recs
	fail := func(kind string, i int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s host %s %s %d after Reset: %s", label, h.Name, kind, i, fmt.Sprintf(format, args...))
	}
	if len(rc.slots) == 0 || len(rc.outs) == 0 || len(rc.rels) == 0 {
		t.Fatalf("%s host %s kept %d window slots, %d output and %d send records; the run made some of each",
			label, h.Name, len(rc.slots), len(rc.outs), len(rc.rels))
	}
	if rc.slotsUsed != 0 {
		t.Fatalf("%s host %s has %d window slots in use after Reset", label, h.Name, rc.slotsUsed)
	}
	for i, s := range rc.slots {
		switch {
		case s.ep != nil || s.va != 0:
			fail("rxSlot", i, "still bound to an endpoint (buffer %#x)", s.va)
		case s.msg.slot != s:
			fail("rxSlot", i, "msg.slot does not point back at the slot")
		case s.msg.released:
			fail("rxSlot", i, "msg.released = true")
		case s.msg.data != nil:
			fail("rxSlot", i, "msg.data holds %d bytes", len(s.msg.data))
		case s.in.onComplete == nil || s.in.finish == nil:
			fail("rxSlot", i, "lost its bound completion")
		}
		in := s.in
		if frames := in.ownKbuf.frames; len(frames) != 0 || slices.ContainsFunc(frames[:cap(frames)], func(f *mem.Frame) bool { return f != nil }) {
			fail("rxSlot", i, "kernel buffer still lists frames %v", frames[:cap(frames)])
		}
		in.onComplete, in.finish, in.ownKbuf.frames = nil, nil, nil
		if f := nonZeroField(in); f != "" {
			fail("rxSlot", i, "in.%s is set", f)
		}
	}
	checkIdle(t, label, h, "OutputOp", rc.outs, rc.idleOuts)
	for i, op := range rc.outs {
		if op.onDone == nil || op.launch == nil || op.sent == nil {
			fail("OutputOp", i, "lost a bound callback")
		}
		o := *op
		o.onDone, o.launch, o.sent = nil, nil, nil
		if f := nonZeroField(o); f != "" {
			fail("OutputOp", i, "%s is set", f)
		}
	}
	checkIdle(t, label, h, "relPending", rc.rels, rc.idleRels)
	for i, p := range rc.rels {
		if p.fire == nil {
			fail("relPending", i, "lost its bound retransmit callback")
		}
		if len(p.frame) != 0 {
			fail("relPending", i, "frame holds %d bytes", len(p.frame))
		}
		q := *p
		q.fire, q.frame = nil, nil
		if f := nonZeroField(q); f != "" {
			fail("relPending", i, "%s is set", f)
		}
	}
}

// checkIdle requires the idle list to hold every record exactly once.
func checkIdle[T comparable](t *testing.T, label string, h *Host, kind string, all, idle []T) {
	t.Helper()
	if len(idle) != len(all) {
		t.Fatalf("%s host %s has %d of %d %s records idle after Reset", label, h.Name, len(idle), len(all), kind)
	}
	seen := make(map[T]bool, len(idle))
	for _, r := range idle {
		if seen[r] || !slices.Contains(all, r) {
			t.Fatalf("%s host %s idle %s list holds a record twice or one it never made", label, h.Name, kind)
		}
		seen[r] = true
	}
}

// nonZeroField returns the name of v's first nonzero field, "" if
// every field is zero.
func nonZeroField(v any) string {
	rv := reflect.ValueOf(v)
	for i := range rv.NumField() {
		if !rv.Field(i).IsZero() {
			return rv.Type().Field(i).Name
		}
	}
	return ""
}

// clusterRoundThenInFlight connects every ring pair with one of the
// eight semantics, completes one round of sends both ways, then sends a
// second round and leaves it in flight.
func clusterRoundThenInFlight(t *testing.T, c *Cluster, cfg ClusterConfig) {
	t.Helper()
	procs := make([]*Process, cfg.Topo.Hosts)
	for i := range procs {
		procs[i] = c.Host(i).Genie.NewProcess()
	}
	sems := AllSemantics()
	var eps []*Endpoint
	for i, p := range cfg.Topo.Pairs {
		ea, eb, err := c.Connect(procs[p[0]], procs[p[1]], sems[i%len(sems)], 3*4096, 2)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ea, eb)
	}
	send := func(round int) {
		for i, e := range eps {
			payload := make([]byte, 1000+i%8*1400+round)
			for j := range payload {
				payload[j] = byte(i + j + round)
			}
			if err := e.Send(payload); err != nil {
				t.Fatalf("round %d endpoint %d: %v", round, i, err)
			}
		}
	}
	send(0)
	c.Run()
	for _, e := range eps {
		for {
			m, ok := e.Recv()
			if !ok {
				break
			}
			if err := m.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(1)
}
