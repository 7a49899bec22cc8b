package workload

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The RPC fan-out scenario: one client on host 0 scatters a request to
// N servers (hosts 1..N, incast topology — here the fan-*in* is the
// response wave converging back on the client). Up to Pipeline
// operations are in flight at once, so each per-server channel carries
// overlapping requests and the client's receive windows carry
// overlapping responses — the swept depth again. An operation
// completes when the last response lands, so the operation latency is
// the maximum over N legs: straggler amplification. One leg hitting
// RTO recovery puts the entire operation into the slow mode, which is
// why fan-out goes bimodal at shallower depths than the file server's
// independent per-client loops.

// foOp is one scattered operation awaiting its response wave.
type foOp struct {
	issuedAt float64
	legs     int
	failed   bool
	pending  bool // issued, some leg not yet retired
}

// foClient is the single scattering client on host 0. Its
// per-operation records are sized for the op budget up front and its
// timer callback is bound once.
type foClient struct {
	eng  *sim.Engine
	rels []*core.Reliable // client end per server
	cfg  Config
	load float64

	nextOp  int
	toIssue int
	ops     []foOp
	// inflight[leg][seq-1] is the op whose request on that leg is frame
	// seq, until the frame settles (-1 after). Each op sends one request
	// per leg, numbered consecutively from 1.
	inflight [][]int
	req      [fsRequestBytes]byte // request scratch: Send copies it at once
	issueFn  func()               // issue, bound once
	rec      clientRec
}

// start opens the pipeline of scattered operations.
func (c *foClient) start() {
	c.toIssue = c.cfg.Ops
	c.ops = make([]foOp, c.cfg.Ops)
	c.inflight = make([][]int, len(c.rels))
	for i := range c.inflight {
		c.inflight[i] = make([]int, 0, c.cfg.Ops)
	}
	c.rec.lat = make([]float64, 0, c.cfg.Ops)
	c.rec.done = make([]float64, 0, c.cfg.Ops)
	c.issueFn = c.issue
	k := min(c.cfg.Pipeline, c.cfg.Ops)
	for s := 0; s < k; s++ {
		c.eng.Schedule(sim.Duration(thinkDelay(c.cfg, c.load, 0, s)/4), c.issueFn)
	}
}

// issue scatters the next request to every server.
func (c *foClient) issue() {
	if c.toIssue <= 0 {
		return
	}
	c.toIssue--
	op := c.nextOp
	c.nextOp++
	c.ops[op] = foOp{issuedAt: float64(c.eng.Now()), legs: len(c.rels), pending: true}
	req := c.req[:]
	clear(req)
	for i, r := range c.rels {
		encodeOp(req, i+1, op)
		seq, err := r.Send(req)
		if err != nil {
			c.ops[op].failed = true
			c.leg(op)
			continue
		}
		for int(seq) > len(c.inflight[i]) {
			c.inflight[i] = append(c.inflight[i], -1)
		}
		c.inflight[i][seq-1] = op
	}
}

// onResponse retires one leg of an in-flight operation, matched by the
// echoed identity.
func (c *foClient) onResponse(payload []byte) {
	c.rec.bytes += uint64(len(payload))
	c.leg(decodeOp(payload))
}

// legSettled turns an abandoned request frame into a failed leg; the
// server almost surely never saw it, so no response is coming.
func (c *foClient) legSettled(leg int, seq uint32, acked bool) {
	i := int(seq) - 1
	if i < 0 || i >= len(c.inflight[leg]) || c.inflight[leg][i] < 0 {
		return
	}
	op := c.inflight[leg][i]
	c.inflight[leg][i] = -1
	if acked {
		return
	}
	if c.ops[op].pending {
		c.ops[op].failed = true
		c.leg(op)
	}
}

// leg accounts one retired leg; the last one completes the operation
// and refills the pipeline slot after a think delay.
func (c *foClient) leg(op int) {
	if op >= len(c.ops) || !c.ops[op].pending {
		return
	}
	o := &c.ops[op]
	o.legs--
	if o.legs > 0 {
		return
	}
	o.pending = false
	now := float64(c.eng.Now())
	if o.failed {
		c.rec.failed++
	} else {
		c.rec.lat = append(c.rec.lat, now-o.issuedAt)
		c.rec.done = append(c.rec.done, now)
	}
	if c.toIssue > 0 {
		c.eng.Schedule(sim.Duration(thinkDelay(c.cfg, c.load, 0, op+c.cfg.Pipeline)), c.issueFn)
	}
}

// runFanOut executes one fan-out operating point.
func runFanOut(slot *clusterSlot, cfg Config, sem core.Semantics, depth int, load float64, workers int) (*pointRaw, error) {
	hosts := cfg.Clients + 1
	c, err := clusterFor(slot, cfg, clusterDepth(cfg, depth), cfg.Clients, topo.Incast(hosts), workers)
	if err != nil {
		return nil, err
	}
	defer slot.done()
	client := c.Host(0).Genie.NewProcess()

	fo := &foClient{eng: c.Sim.Shard(0), cfg: cfg, load: load}
	rels := make([]*core.Reliable, 0, 2*cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		leg := i
		p := c.Host(i + 1).Genie.NewProcess()
		rCli, rSrv, err := c.ConnectReliable(client, p, sem, cfg.MsgBytes, depth, relConfig(cfg))
		if err != nil {
			return nil, err
		}
		// Each server runs on its own shard, so each gets a private
		// response buffer — a shared one would race across workers.
		resp := make([]byte, cfg.MsgBytes)
		fillPayload(resp)
		rSrv.OnDeliver(func(_ uint32, payload []byte) {
			encodeOp(resp, int(payload[0]), decodeOp(payload))
			_, _ = rSrv.Send(resp)
		})
		rCli.OnDeliver(func(_ uint32, payload []byte) { fo.onResponse(payload) })
		rCli.OnSettled(func(seq uint32, acked bool) { fo.legSettled(leg, seq, acked) })
		fo.rels = append(fo.rels, rCli)
		rels = append(rels, rCli, rSrv)
	}
	fo.start()
	c.Run()

	raw := &pointRaw{clients: []clientRec{fo.rec}}
	sumReliableStats(raw, rels...)
	collectCluster(raw, c, 0)
	return raw, nil
}
