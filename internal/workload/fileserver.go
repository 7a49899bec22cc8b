package workload

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The file-server scenario: N clients on their own hosts run
// think-time loops against one server on host 0 (incast topology — the
// fan-in converges on the server's ports and shared CPU). Each client
// keeps up to Pipeline operations outstanding — read-ahead — and each
// operation is a small request up and an MsgBytes response down, both
// over reliable channels. The swept depth is the channel receive
// window on both sides: pipelined requests land nearly back-to-back on
// the server's preposted buffers (requests are tiny, so their wire
// spacing is far shorter than their buffer holding time under CPU
// backlog), and the response burst converges on the client's window
// coming back. A window shallower than the pipeline drops the overlap;
// the drop is recovered by RTO retransmission rather than lost — which
// is exactly what makes shallow depths *bimodal* instead of lossy:
// most operations complete in the fast mode, the unlucky ones pay a
// many-millisecond recovery mode.

// fsRequestBytes is the request payload: an encodeOp identity naming
// (client, op) plus padding — small enough to never be the queue
// pressure itself.
const fsRequestBytes = 32

// fsClient is one closed-loop client state machine, driven entirely by
// shard-local timers and reliable-channel upcalls on its own host. Its
// per-operation records are sized for the op budget up front and its
// timer callback is bound once, so a running client allocates nothing.
type fsClient struct {
	idx  int
	eng  *sim.Engine
	rel  *core.Reliable // client end of the channel to the server
	cfg  Config
	load float64

	nextOp  int // next operation index to issue
	toIssue int // operations not yet issued
	// ops[op] is the operation's issue time while it awaits its
	// response.
	ops []fsOp
	// inflight[seq-1] is the op whose request is frame seq, until the
	// frame settles (-1 after). Each op sends one request, and the
	// channel numbers frames consecutively from 1.
	inflight []int
	req      [fsRequestBytes]byte // request scratch: Send copies it at once
	issueFn  func()               // issue, bound once
	rec      clientRec
}

// fsOp is one operation's client-side state.
type fsOp struct {
	issuedAt float64
	pending  bool // issued, awaiting its response
}

// init makes c client idx, with records for cfg.Ops operations.
func (c *fsClient) init(idx int, eng *sim.Engine, rel *core.Reliable, cfg Config, load float64) {
	*c = fsClient{
		idx:      idx,
		eng:      eng,
		rel:      rel,
		cfg:      cfg,
		load:     load,
		ops:      make([]fsOp, cfg.Ops),
		inflight: make([]int, 0, cfg.Ops),
		rec: clientRec{
			lat:  make([]float64, 0, cfg.Ops),
			done: make([]float64, 0, cfg.Ops),
		},
	}
	c.issueFn = c.issue
}

// start opens the pipeline: up to Pipeline slots, each beginning at a
// jittered offset so clients decorrelate without shared randomness.
// Every completed (or failed) operation refills its slot after a think
// delay, keeping the outstanding count at the pipeline depth until the
// op budget drains.
func (c *fsClient) start() {
	c.toIssue = c.cfg.Ops
	k := min(c.cfg.Pipeline, c.cfg.Ops)
	for s := 0; s < k; s++ {
		c.eng.Schedule(sim.Duration(thinkDelay(c.cfg, c.load, c.idx, s)/4), c.issueFn)
	}
}

// issue sends the next request and remembers when.
func (c *fsClient) issue() {
	if c.toIssue <= 0 {
		return
	}
	c.toIssue--
	op := c.nextOp
	c.nextOp++
	req := c.req[:]
	clear(req)
	encodeOp(req, c.idx+1, op)
	c.ops[op] = fsOp{issuedAt: float64(c.eng.Now()), pending: true}
	seq, err := c.rel.Send(req)
	if err != nil {
		// Closed or oversized — both are programming errors here; record
		// the op as failed and stop issuing rather than panic mid-window.
		c.ops[op].pending = false
		c.rec.failed++
		c.toIssue = 0
		return
	}
	for int(seq) > len(c.inflight) {
		c.inflight = append(c.inflight, -1)
	}
	c.inflight[seq-1] = op
}

// onResponse completes one outstanding operation — matched by the
// echoed identity, not arrival order — then thinks and refills the
// pipeline slot.
func (c *fsClient) onResponse(payload []byte) {
	op := decodeOp(payload)
	if op >= len(c.ops) || !c.ops[op].pending {
		// A straggler response for an op already written off as failed
		// (its request gave up but had in fact been delivered).
		return
	}
	c.ops[op].pending = false
	now := float64(c.eng.Now())
	c.rec.lat = append(c.rec.lat, now-c.ops[op].issuedAt)
	c.rec.done = append(c.rec.done, now)
	c.rec.bytes += uint64(len(payload))
	c.next(op)
}

// onReqSettled watches request frames leave the send queue. An ack is
// business as usual (the response itself completes the op); an
// abandonment after MaxAttempts means the server almost surely never
// saw the request — the op has failed, and the slot moves on instead
// of waiting forever.
func (c *fsClient) onReqSettled(seq uint32, acked bool) {
	i := int(seq) - 1
	if i < 0 || i >= len(c.inflight) || c.inflight[i] < 0 {
		return
	}
	op := c.inflight[i]
	c.inflight[i] = -1
	if acked {
		return
	}
	if !c.ops[op].pending {
		return
	}
	c.ops[op].pending = false
	c.rec.failed++
	c.next(op)
}

func (c *fsClient) next(op int) {
	if c.toIssue > 0 {
		c.eng.Schedule(sim.Duration(thinkDelay(c.cfg, c.load, c.idx, op+c.cfg.Pipeline)), c.issueFn)
	}
}

// runFileServer executes one file-server operating point.
func runFileServer(slot *clusterSlot, cfg Config, sem core.Semantics, depth int, load float64, workers int) (*pointRaw, error) {
	c, err := clusterFor(slot, cfg, clusterDepth(cfg, depth), cfg.Clients, topo.Incast(cfg.Clients+1), workers)
	if err != nil {
		return nil, err
	}
	defer slot.done()
	return fileServerOn(c, cfg, sem, depth, load)
}

// fileServerOn runs one file-server operating point on c, an incast
// cluster of cfg.Clients+1 hosts from clusterFor.
func fileServerOn(c *core.Cluster, cfg Config, sem core.Semantics, depth int, load float64) (*pointRaw, error) {
	server := c.Host(0).Genie.NewProcess()
	resp := make([]byte, cfg.MsgBytes)
	fillPayload(resp)

	clients := make([]fsClient, cfg.Clients)
	rels := make([]*core.Reliable, 0, 2*cfg.Clients)
	for i := range clients {
		p := c.Host(i + 1).Genie.NewProcess()
		// The swept depth is the channel receive window — the queue of
		// preposted buffers absorbing the request/response fan-in per port.
		rCli, rSrv, err := c.ConnectReliable(p, server, sem, cfg.MsgBytes, depth, relConfig(cfg))
		if err != nil {
			return nil, err
		}
		cl := &clients[i]
		cl.init(i, c.Sim.Shard(i+1), rCli, cfg, load)
		// The server's reply runs inside the server shard's window; the
		// response re-stamps the shared fill with the request's identity
		// (Send copies synchronously, so one buffer serves every reply).
		rSrv.OnDeliver(func(_ uint32, payload []byte) {
			encodeOp(resp, int(payload[0]), decodeOp(payload))
			_, _ = rSrv.Send(resp)
		})
		rCli.OnDeliver(func(_ uint32, payload []byte) { cl.onResponse(payload) })
		rCli.OnSettled(cl.onReqSettled)
		rels = append(rels, rCli, rSrv)
	}
	for i := range clients {
		clients[i].start()
	}
	c.Run()

	raw := &pointRaw{clients: make([]clientRec, cfg.Clients)}
	for i := range clients {
		raw.clients[i] = clients[i].rec
	}
	sumReliableStats(raw, rels...)
	collectCluster(raw, c, 0)
	return raw, nil
}
