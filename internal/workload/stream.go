package workload

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The media-streaming scenario: one sender on host 0 generates
// fixed-size frames at a target bitrate and pushes them through a
// bounded sender-side queue to a receiver on host 1. The queue
// capacity is the swept depth, and this is rule-3 in its purest form:
// when the offered bitrate exceeds what the channel sustains, a deeper
// queue does not restore timeliness — it converts loss (shed frames)
// into latency (every queued frame ages by the full queue drain time)
// and memory creep (the queue high-water mark pins at capacity). The
// sender is paced open-loop by the encoder clock but closed-loop at
// the channel: at most Window frames are in flight, admitted from the
// queue head as earlier frames settle.

// streamSender is the sender state machine on host 0's shard.
type streamSender struct {
	eng *sim.Engine
	rel *core.Reliable
	cfg Config

	depth    int
	queue    []float64 // birth times of queued frames, FIFO
	queueHWM int
	// inflight[seq-1] is the birth time of frame seq until it settles
	// (-1 after). Each admitted frame is one send, numbered
	// consecutively from 1.
	inflight    []float64
	outstanding int
	frame       []byte
	nextIdx     int // stamp index for the next admitted frame
	shed        uint64
	rec         clientRec
}

// tick is the encoder clock: one frame is produced; a full queue sheds
// it (late frames are useless to a media decoder), otherwise it joins
// the queue and the pump admits whatever the in-flight window allows.
func (s *streamSender) tick() {
	if len(s.queue) >= s.depth {
		s.shed++
		return
	}
	s.queue = append(s.queue, float64(s.eng.Now()))
	if len(s.queue) > s.queueHWM {
		s.queueHWM = len(s.queue)
	}
	s.pump()
}

// pump admits queued frames into the reliable channel up to the
// in-flight cap.
func (s *streamSender) pump() {
	for s.outstanding < s.cfg.Window && len(s.queue) > 0 {
		birth := s.queue[0]
		s.queue = s.queue[1:]
		stampPayload(s.frame, 1, s.nextIdx)
		s.nextIdx++
		seq, err := s.rel.Send(s.frame)
		if err != nil {
			s.rec.failed++
			continue
		}
		for int(seq) > len(s.inflight) {
			s.inflight = append(s.inflight, -1)
		}
		s.inflight[seq-1] = birth
		s.outstanding++
	}
}

// onSettled completes (or abandons) one in-flight frame. Latency is
// birth-to-settle: queueing delay plus transfer plus the ack — the
// age of the frame when the sender learns it landed, which is the
// quantity that goes bimodal when recovery kicks in.
func (s *streamSender) onSettled(seq uint32, acked bool) {
	i := int(seq) - 1
	if i < 0 || i >= len(s.inflight) || s.inflight[i] < 0 {
		return
	}
	birth := s.inflight[i]
	s.inflight[i] = -1
	s.outstanding--
	now := float64(s.eng.Now())
	if acked {
		s.rec.lat = append(s.rec.lat, now-birth)
		s.rec.done = append(s.rec.done, now)
		s.rec.bytes += uint64(s.cfg.MsgBytes)
	} else {
		s.rec.failed++
	}
	s.pump()
}

// runStream executes one streaming operating point.
func runStream(slot *clusterSlot, cfg Config, sem core.Semantics, depth int, load float64, workers int) (*pointRaw, error) {
	c, err := clusterFor(slot, cfg, clusterDepth(cfg, depth), 1, topo.Pair(), workers)
	if err != nil {
		return nil, err
	}
	defer slot.done()
	sender := c.Host(0).Genie.NewProcess()
	receiver := c.Host(1).Genie.NewProcess()
	rSnd, rRcv, err := c.ConnectReliable(sender, receiver, sem, cfg.MsgBytes, cfg.Window, relConfig(cfg))
	if err != nil {
		return nil, err
	}
	// The per-frame records are sized for the op budget up front: the
	// queue's FIFO slides through at most Ops births.
	s := &streamSender{
		eng:      c.Sim.Shard(0),
		rel:      rSnd,
		cfg:      cfg,
		depth:    depth,
		queue:    make([]float64, 0, cfg.Ops),
		inflight: make([]float64, 0, cfg.Ops),
		frame:    make([]byte, cfg.MsgBytes),
		rec: clientRec{
			lat:  make([]float64, 0, cfg.Ops),
			done: make([]float64, 0, cfg.Ops),
		},
	}
	fillPayload(s.frame)
	rSnd.OnSettled(s.onSettled)
	// The receiver consumes frames implicitly: reliable delivery reposts
	// the window buffer and acks, which is all a sink needs to do.
	rRcv.OnDeliver(func(uint32, []byte) {})

	// The encoder clock: strictly periodic frame production at the
	// offered bitrate, all ticks pre-scheduled (an encoder does not slow
	// down because the network is congested — that asymmetry is the
	// whole scenario).
	interval := float64(cfg.MsgBytes) / (cfg.StreamMBps * load)
	tick := s.tick
	for i := 0; i < cfg.Ops; i++ {
		s.eng.Schedule(sim.Duration(float64(i)*interval+1), tick)
	}
	c.Run()

	raw := &pointRaw{
		clients:  []clientRec{s.rec},
		shed:     s.shed,
		queueHWM: s.queueHWM,
	}
	sumReliableStats(raw, rSnd, rRcv)
	// The receiver's pools absorb the stream; host 1 is the hot spot.
	collectCluster(raw, c, 1)
	return raw, nil
}
