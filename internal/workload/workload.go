// Package workload is the closed-loop load-generation subsystem: where
// the paper (and the figures/ sweeps) measure open-loop single
// transfers, this package drives sustained request/response and
// streaming traffic over reliable channels on a multi-host cluster and
// sweeps semantics × queue depth × offered load. The point is the
// rule-3 observation from the buffered-channel literature: a queue in
// front of a slow consumer only *delays* blocking — under sufficient
// offered load every buffering semantics eventually goes bimodal
// (retransmit-dominated latency tails, memory creep toward the pool
// high-water mark), and the depth at which it stops doing so is a
// per-semantics capacity-planning number. This package locates that
// transition reproducibly: every operating point is a deterministic
// simulation, bit-identical at any worker count.
//
// Three scenarios share the machinery:
//
//   - fileserver: N clients in think-time loops, each issuing a small
//     request and receiving an MsgBytes response from one server whose
//     device pool depth is the swept queue knob.
//   - stream: one sender pushing fixed-size frames at a target bitrate
//     through a bounded sender-side queue (the swept knob), the rule-3
//     memory-creep shape in its purest form.
//   - fanout: one client scattering a request to N servers and waiting
//     for all responses — straggler amplification turns any one
//     server's recovery stall into whole-operation tail latency.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Scenario names.
const (
	FileServer = "fileserver"
	Stream     = "stream"
	FanOut     = "fanout"
)

// Scenarios lists the valid scenario names.
func Scenarios() []string { return []string{FileServer, Stream, FanOut} }

// Config parameterizes one workload sweep. The zero value of every
// field takes a default sized so the full default sweep (8 semantics ×
// 5 depths × 3 loads) stays comfortably inside a CI smoke budget.
type Config struct {
	// Scenario selects the traffic shape; defaults to FileServer.
	Scenario string
	// Semantics lists the buffering semantics to sweep; empty means all
	// eight.
	Semantics []core.Semantics
	// Depths is the swept queue depth in messages: the channel receive
	// window — preposted input buffers per endpoint, the queue in front
	// of the receive path (fileserver, fanout) — or the sender-side
	// frame queue (stream). Empty means {1, 2, 4, 8, 16}. Must be
	// ascending for the transition search to be meaningful; Run sorts a
	// copy defensively.
	Depths []int
	// Loads is the swept offered-load multiplier, relative to the base
	// think time (fileserver, fanout) or base bitrate (stream). Empty
	// means {0.5, 1, 2}.
	Loads []float64
	// Clients is the number of closed-loop clients (fileserver) or
	// fan-out servers (fanout); the stream scenario ignores it. 0 → 4.
	Clients int
	// Ops is the number of operations per client (frames, for stream).
	// 0 → 12.
	Ops int
	// MsgBytes is the response/frame payload size. 0 → 2048.
	MsgBytes int
	// ThinkUS is the base think time in microseconds between a client's
	// operations at load 1.0; higher loads shrink it. 0 → 400.
	ThinkUS float64
	// Pipeline is the number of concurrently outstanding operations per
	// client (fileserver) or scattered operations in flight (fanout) —
	// the read-ahead knob. This is what the swept queue depth absorbs: a
	// window shallower than the pipeline drops the overlap and pays RTO
	// recovery; a deeper one holds it in committed buffer memory. The
	// stream scenario ignores it (its Window caps in-flight frames).
	// 0 → 4.
	Pipeline int
	// StreamMBps is the stream scenario's target bitrate (bytes/µs ==
	// MB/s) at load 1.0. 0 → 12.
	StreamMBps float64
	// Window is the stream scenario's channel receive window and
	// in-flight cap (the stream sweeps its sender queue instead of the
	// window). 0 → 2.
	Window int
	// RTOUS is the reliable channels' retransmission timeout in
	// microseconds. It must sit well above the loaded closed-loop RTT:
	// when it does, a retransmit means a real queue-exhaustion drop (the
	// rule-3 slow mode); when it does not, the timer fires on ordinary
	// queueing delay and every operating point looks bimodal. 0 → 12000.
	RTOUS float64
	// Faults optionally arms seeded deterministic fault injection on
	// every host (the cluster derives decorrelated per-host streams).
	Faults faults.Spec
	// Seed feeds the think-time jitter hash. 0 → 1.
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Scenario == "" {
		c.Scenario = FileServer
	}
	if !slices.Contains(Scenarios(), c.Scenario) {
		return c, fmt.Errorf("workload: unknown scenario %q (want one of %v)", c.Scenario, Scenarios())
	}
	if len(c.Semantics) == 0 {
		c.Semantics = core.AllSemantics()
	}
	for _, s := range c.Semantics {
		if !s.Valid() {
			return c, fmt.Errorf("workload: invalid semantics %d", s)
		}
	}
	if len(c.Depths) == 0 {
		c.Depths = []int{1, 2, 4, 8, 16}
	} else {
		c.Depths = slices.Clone(c.Depths)
	}
	slices.Sort(c.Depths)
	for _, d := range c.Depths {
		if d < 1 {
			return c, fmt.Errorf("workload: depth %d < 1", d)
		}
	}
	if len(c.Loads) == 0 {
		c.Loads = []float64{0.5, 1, 2}
	}
	for _, l := range c.Loads {
		if l <= 0 {
			return c, fmt.Errorf("workload: load multiplier %v <= 0", l)
		}
		if !finite(l) {
			return c, fmt.Errorf("workload: load multiplier %v is not finite", l)
		}
	}
	// 0 selects a knob's default; a negative or non-finite value is a
	// mistake, not a request for the default.
	for _, k := range [...]struct {
		name string
		v    float64
	}{
		{"Clients", float64(c.Clients)}, {"Ops", float64(c.Ops)}, {"MsgBytes", float64(c.MsgBytes)},
		{"ThinkUS", c.ThinkUS}, {"Pipeline", float64(c.Pipeline)}, {"StreamMBps", c.StreamMBps},
		{"Window", float64(c.Window)}, {"RTOUS", c.RTOUS},
	} {
		if k.v < 0 || !finite(k.v) {
			return c, fmt.Errorf("workload: %s %v: want a finite value >= 0 (0 = default)", k.name, k.v)
		}
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Ops <= 0 {
		c.Ops = 12
	}
	if c.MsgBytes <= 0 {
		c.MsgBytes = 2048
	}
	if c.ThinkUS <= 0 {
		c.ThinkUS = 400
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 4
	}
	if c.StreamMBps <= 0 {
		c.StreamMBps = 12
	}
	if c.Window <= 0 {
		c.Window = 2
	}
	if c.RTOUS <= 0 {
		c.RTOUS = 12000
	}
	if err := c.Faults.Validate(); err != nil {
		return c, fmt.Errorf("workload: %w", err)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Point is one operating point of the sweep: one (semantics, depth,
// load) simulation and everything measured from it. Latencies are in
// simulated microseconds; throughputs in MB/s (== bytes/µs).
type Point struct {
	Depth        int                  `json:"depth"`
	Load         float64              `json:"load"`
	OfferedMBps  float64              `json:"offered_mbps"`
	AchievedMBps float64              `json:"achieved_mbps"`
	Latency      stats.LatencySummary `json:"latency_us"`
	Completed    uint64               `json:"completed"`
	Failed       uint64               `json:"failed"`
	Shed         uint64               `json:"shed"`
	Retransmits  uint64               `json:"retransmits"`
	Drops        uint64               `json:"drops"`
	PoolHWM      int                  `json:"pool_hwm_pages"`
	KernelHWM    int                  `json:"kernel_hwm_pages"`
	FramesHWM    int                  `json:"frames_hwm"`
	QueueHWM     int                  `json:"queue_hwm"`
	Bimodal      bool                 `json:"bimodal"`
}

// Scheme is the full sweep for one buffering semantics plus the located
// rule-3 transition depth: the smallest swept depth whose
// heaviest-load operating point is no longer bimodal, or -1 when even
// the deepest queue stays bimodal (the queue only delays blocking).
type Scheme struct {
	Semantics       string  `json:"semantics"`
	Points          []Point `json:"points"`
	TransitionDepth int     `json:"transition_depth"`
}

// Result is one complete workload sweep at one worker count.
type Result struct {
	Scenario string   `json:"scenario"`
	Clients  int      `json:"clients"`
	Ops      int      `json:"ops"`
	MsgBytes int      `json:"msg_bytes"`
	Schemes  []Scheme `json:"schemes"`
	// Digest fingerprints every sample, counter, and high-water mark in
	// canonical order; equal digests mean bit-identical sweeps.
	Digest string `json:"digest"`
	// CompletedOps is the total operation count folded into the digest.
	CompletedOps uint64 `json:"completed_ops"`
}

// Scheme returns the sweep for the named semantics, nil if absent.
func (r *Result) Scheme(name string) *Scheme {
	for i := range r.Schemes {
		if r.Schemes[i].Semantics == name {
			return &r.Schemes[i]
		}
	}
	return nil
}

// clientRec is one closed-loop client's raw observations, in completion
// order — the canonical per-shard-deterministic sequence the digest
// folds.
type clientRec struct {
	lat    []float64 // op latency, µs
	done   []float64 // completion sim time, µs
	bytes  uint64    // payload bytes completed
	failed uint64    // ops abandoned by the recovery layer
}

// pointRaw is what a scenario run hands back for one operating point.
type pointRaw struct {
	clients     []clientRec
	shed        uint64
	retransmits uint64
	drops       uint64
	poolHWM     int
	kernelHWM   int
	framesHWM   int
	queueHWM    int
	// hostStats folds per-host adapter and framework stat structs, in
	// host order, formatted — any worker-count-dependent perturbation of
	// a counter lands in the digest.
	hostStats []string
}

// Run executes the full sweep at the given in-cluster worker count,
// walking the (semantics, depth, load) grid one point at a time. It is
// RunParallel with a single point worker.
func Run(cfg Config, workers int) (*Result, error) {
	return RunParallel(cfg, workers, 1)
}

// gridPoint is one cell of the sweep's canonical (semantics, depth,
// load) grid, in the order the serial loop would visit it.
type gridPoint struct {
	sem   core.Semantics
	depth int
	load  float64
}

// RunParallel executes the full sweep, fanning independent operating
// points across pointWorkers goroutines (<= 0 means GOMAXPROCS, 1 is
// the strictly serial path with no goroutines). Points are
// embarrassingly parallel — each simulates on its own cluster — and
// results land in index-i storage, so after the fan-out the digest is
// folded serially in canonical grid order: the Result (Digest included)
// is byte-identical to the serial sweep at any point-worker count.
// Points run in cluster-configuration order, and each point worker
// holds at most one cluster, which the run drops before it returns, on
// the error path too (see clusterSlot). workers is the in-cluster
// shard-advance worker count each point's cluster engine uses — a
// different axis entirely, and equally unable to perturb results.
func RunParallel(cfg Config, workers, pointWorkers int) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	grid := make([]gridPoint, 0, len(cfg.Semantics)*len(cfg.Depths)*len(cfg.Loads))
	for _, sem := range cfg.Semantics {
		for _, depth := range cfg.Depths {
			for _, load := range cfg.Loads {
				grid = append(grid, gridPoint{sem: sem, depth: depth, load: load})
			}
		}
	}
	order := make([]int, len(grid))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(clusterDepth(cfg, grid[a].depth), clusterDepth(cfg, grid[b].depth))
	})
	slots := make([]clusterSlot, min(ResolvePointWorkers(pointWorkers), len(grid)))
	defer func() {
		for i := range slots {
			slots[i].drop()
		}
	}()
	raws := make([]*pointRaw, len(grid))
	err = par.Each(len(order), pointWorkers, func(w, k int) error {
		i := order[k]
		g := grid[i]
		raw, err := computePoint(&slots[w], cfg, g.sem, g.depth, g.load, workers)
		if err != nil {
			return fmt.Errorf("workload: %s %s depth=%d load=%v: %w",
				cfg.Scenario, g.sem, g.depth, g.load, err)
		}
		raws[i] = raw
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble and fold in canonical grid order. The fold is the exact
	// statement sequence the serial sweep emitted inline, so the digest
	// cannot tell the regimes apart.
	d := digest.New()
	res := &Result{
		Scenario: cfg.Scenario,
		Clients:  cfg.Clients,
		Ops:      cfg.Ops,
		MsgBytes: cfg.MsgBytes,
	}
	d.Addf("workload %s clients=%d ops=%d msg=%d seed=%d\n",
		cfg.Scenario, cfg.Clients, cfg.Ops, cfg.MsgBytes, cfg.Seed)
	heaviest := slices.Max(cfg.Loads)
	q := stats.NewQuantiles(0) // every point's latencies, in turn
	idx := 0
	for range cfg.Semantics {
		g := grid[idx]
		scheme := Scheme{Semantics: g.sem.String(), TransitionDepth: -1}
		for range cfg.Depths {
			for range cfg.Loads {
				g = grid[idx]
				pt := makePoint(q, cfg, g.depth, g.load, raws[idx])
				foldPoint(d, g.sem.String(), &pt, raws[idx])
				scheme.Points = append(scheme.Points, pt)
				if g.load == heaviest && !pt.Bimodal && scheme.TransitionDepth < 0 {
					scheme.TransitionDepth = g.depth
				}
				idx++
			}
		}
		res.Schemes = append(res.Schemes, scheme)
	}
	res.Digest = d.Hex()
	res.CompletedOps = d.Records()
	return res, nil
}

// ResolvePointWorkers reports the effective point-worker count for a
// requested value: <= 0 selects GOMAXPROCS. Sweeps additionally clamp
// to the number of grid points.
func ResolvePointWorkers(pw int) int {
	if pw <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return pw
}

// computePoint dispatches one operating point to its scenario runner,
// which takes its cluster from slot.
func computePoint(slot *clusterSlot, cfg Config, sem core.Semantics, depth int, load float64, workers int) (*pointRaw, error) {
	switch cfg.Scenario {
	case FileServer:
		return runFileServer(slot, cfg, sem, depth, load, workers)
	case Stream:
		return runStream(slot, cfg, sem, depth, load, workers)
	case FanOut:
		return runFanOut(slot, cfg, sem, depth, load, workers)
	}
	return nil, fmt.Errorf("workload: unknown scenario %q", cfg.Scenario)
}

// makePoint reduces a scenario's raw observations to the reported
// operating point. Bimodality is declared when the recovery machinery
// fired at all (any retransmit, drop, or shed frame — each one puts a
// multi-millisecond RTO mode into an otherwise sub-millisecond latency
// population) or when the tail itself is stretched (p99 at least 3×
// p50); a point that completed nothing is bimodal by definition, being
// the degenerate far side of the transition. q collects the latencies;
// makePoint resets it first.
func makePoint(q *stats.Quantiles, cfg Config, depth int, load float64, raw *pointRaw) Point {
	q.Reset()
	var bytes, completed, failed uint64
	last := 0.0
	for _, c := range raw.clients {
		for _, v := range c.lat {
			q.Add(v)
		}
		for _, t := range c.done {
			if t > last {
				last = t
			}
		}
		bytes += c.bytes
		completed += uint64(len(c.lat))
		failed += c.failed
	}
	pt := Point{
		Depth:       depth,
		Load:        load,
		OfferedMBps: offeredMBps(cfg, load),
		Latency:     q.Summary(),
		Completed:   completed,
		Failed:      failed,
		Shed:        raw.shed,
		Retransmits: raw.retransmits,
		Drops:       raw.drops,
		PoolHWM:     raw.poolHWM,
		KernelHWM:   raw.kernelHWM,
		FramesHWM:   raw.framesHWM,
		QueueHWM:    raw.queueHWM,
	}
	if last > 0 {
		pt.AchievedMBps = float64(bytes) / last
	}
	pt.Bimodal = completed == 0 ||
		raw.retransmits > 0 || raw.drops > 0 || raw.shed > 0 || failed > 0 ||
		(pt.Latency.P50 > 0 && pt.Latency.P99 >= 3*pt.Latency.P50)
	return pt
}

// offeredMBps is the zero-latency bound on offered throughput: the rate
// the closed loop would sustain were every operation instantaneous
// beyond its pacing (think time or frame interval). Bytes/µs == MB/s.
func offeredMBps(cfg Config, load float64) float64 {
	switch cfg.Scenario {
	case Stream:
		return cfg.StreamMBps * load
	case FanOut:
		// One operation moves Clients responses; Pipeline of them overlap.
		return float64(cfg.Pipeline*cfg.Clients*cfg.MsgBytes) / (cfg.ThinkUS / load)
	default: // fileserver
		return float64(cfg.Pipeline*cfg.Clients*cfg.MsgBytes) / (cfg.ThinkUS / load)
	}
}

// foldPoint folds one operating point into the sweep digest: every
// latency sample and completion time per client in completion order,
// then the counters, high-water marks, and per-host stat structs. Wall
// clock never enters.
func foldPoint(d *digest.Digest, sem string, pt *Point, raw *pointRaw) {
	d.Addf("point %s d=%d l=%x\n", sem, pt.Depth, pt.Load)
	for ci, c := range raw.clients {
		d.Addf("client %d n=%d failed=%d bytes=%d\n", ci, len(c.lat), c.failed, c.bytes)
		for i, v := range c.lat {
			d.Addf("%x@%x\n", v, c.done[i])
			d.Record()
		}
	}
	d.Addf("shed=%d retx=%d drops=%d pool=%d kpool=%d frames=%d queue=%d\n",
		raw.shed, raw.retransmits, raw.drops,
		raw.poolHWM, raw.kernelHWM, raw.framesHWM, raw.queueHWM)
	for i, s := range raw.hostStats {
		d.Addf("host%d %s\n", i, s)
	}
}

// jitter derives a deterministic per-(client, op) pacing offset from
// the config seed — a splitmix64 finalizer, a pure function with no
// shared stream, so no execution order (and no worker count) can
// perturb it.
func jitter(seed uint64, client, op int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(client*65537+op+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// thinkDelay is the pacing delay before a client's next operation:
// base/load plus a hashed jitter of up to 1/8 of that, so clients
// decorrelate instead of marching in lockstep while staying fully
// deterministic.
func thinkDelay(cfg Config, load float64, client, op int) float64 {
	base := cfg.ThinkUS / load
	j := float64(jitter(cfg.Seed, client, op)%1024) / 1024
	return base + base/8*j
}

// pagesPerMsg returns the overlay pages one channel frame of the given
// payload occupies, with margin for the reliable and channel headers.
func pagesPerMsg(msgBytes, pageSize int) int {
	return (msgBytes + 64 + pageSize - 1) / pageSize
}

// clusterDepth is the depth, in messages across the hot host's
// channels, that a point's cluster is sized for (clusterFor's
// depthMsgs): the swept depth, except in the stream scenario, whose
// swept depth is the sender-side queue and whose channel window is
// sized out of the way so the queue is the binding constraint. Within
// one sweep it is the only part of a point's cluster configuration that
// varies.
func clusterDepth(cfg Config, depth int) int {
	if cfg.Scenario == Stream {
		return 4*cfg.Window + 8
	}
	return depth
}

// clusterFor takes the operating point's cluster from slot — the held
// one, Reset, when its configuration matches, a fresh build otherwise
// (the two simulate bit-identically). The caller must call slot.done
// after collecting every stat it needs; whatever it created on the
// cluster is dead afterwards.
//
// The receive path is
// the paper's early-demultiplexing architecture: every preposted
// window buffer is real committed memory for its whole lifetime
// (kernel/aligned pool pages for the copy family, wired application
// pages for the in-place family), a buffer leaves the posted list at
// frame arrival and returns only when the input completes and the
// channel reposts it — so the window is a genuine queue whose
// occupancy time stretches under shared-CPU backlog, and exhaustion is
// a hard adapter drop recovered by RTO retransmission. The kernel pool
// and physical memory are sized generously above the swept window
// (depthMsgs, in messages, across endpoints channels on the hottest
// host): the sweep must bind at the window, not at an accidental
// allocator ceiling.
func clusterFor(slot *clusterSlot, cfg Config, depthMsgs, endpoints int, spec topo.Spec, workers int) (*core.Cluster, error) {
	gcfg := core.DefaultConfig()
	pageSize := 4096
	ppm := pagesPerMsg(cfg.MsgBytes, pageSize)
	// Headroom for the send side too: up to Pipeline responses per
	// endpoint can be queued in the hot host's output path at once, each
	// holding kernel pages until its output completes.
	gcfg.KernelPoolPages = 64 + (4*(depthMsgs+2)+2*cfg.Pipeline)*endpoints*ppm
	ccfg := core.ClusterConfig{
		TestbedConfig: core.TestbedConfig{
			Buffering:     netsim.EarlyDemux,
			FramesPerHost: 2*gcfg.KernelPoolPages + 160,
			Genie:         gcfg,
			Faults:        cfg.Faults,
		},
		Topo:    spec,
		Workers: workers,
	}
	c, err := slot.take(keyFor(ccfg), func() (*core.Cluster, error) { return core.NewCluster(ccfg) })
	if err != nil {
		return nil, err
	}
	if got := c.Host(0).Genie.KernelPool().PageSize(); got != pageSize {
		return nil, fmt.Errorf("workload: unexpected page size %d", got)
	}
	return c, nil
}

// collectHost reads one host's high-water marks and stat structs into
// the raw point. Host 0 in every scenario is the hot spot (the server,
// the stream sender's peer side is host 1 — callers pass which host's
// pools to report); stats from every host fold into the digest either
// way.
func collectCluster(raw *pointRaw, c *core.Cluster, hotHost int) {
	h := c.Host(hotHost)
	if p := h.NIC.Pool(); p != nil {
		raw.poolHWM = p.HighWater()
	}
	raw.kernelHWM = h.Genie.KernelPool().HighWater()
	raw.framesHWM = h.Phys.HighWater()
	var buf [512]byte
	for i := 0; i < c.Size(); i++ {
		hi := c.Host(i)
		nic, g := hi.NIC.Stats(), hi.Genie.Stats()
		raw.hostStats = append(raw.hostStats, string(appendHostStats(buf[:0], nic, g)))
		raw.drops += nic.Dropped + nic.PoolFailures + g.Dropped
	}
}

// appendHostStats appends the bytes fmt.Sprintf("nic=%+v genie=%+v",
// nic, g) makes, field by field and without reflection.
func appendHostStats(b []byte, nic netsim.Stats, g core.Stats) []byte {
	b = appendField(b, "nic={TxFrames:", nic.TxFrames)
	b = appendField(b, " RxFrames:", nic.RxFrames)
	b = appendField(b, " TxBytes:", nic.TxBytes)
	b = appendField(b, " RxBytes:", nic.RxBytes)
	b = appendField(b, " Delivered:", nic.Delivered)
	b = appendField(b, " Dropped:", nic.Dropped)
	b = appendField(b, " PoolFailures:", nic.PoolFailures)
	b = appendField(b, " Retried:", nic.Retried)
	b = appendField(b, " WireDrops:", nic.WireDrops)
	b = appendField(b, " WireDups:", nic.WireDups)
	b = appendField(b, " WireReorders:", nic.WireReorders)
	b = appendField(b, " WireCorrupts:", nic.WireCorrupts)
	b = appendField(b, "} genie={Outputs:", g.Outputs)
	b = appendField(b, " Inputs:", g.Inputs)
	b = appendField(b, " ConvertedToCopy:", g.ConvertedToCopy)
	b = appendField(b, " SwappedPages:", g.SwappedPages)
	b = appendField(b, " ReverseCopyouts:", g.ReverseCopyouts)
	b = appendField(b, " PartialCopyouts:", g.PartialCopyouts)
	b = appendField(b, " FullCopyouts:", g.FullCopyouts)
	b = appendField(b, " AlignedInputs:", g.AlignedInputs)
	b = appendField(b, " UnalignedInputs:", g.UnalignedInputs)
	b = appendField(b, " RegionsReused:", g.RegionsReused)
	b = appendField(b, " RegionsAllocated:", g.RegionsAllocated)
	b = appendField(b, " RegionsRemapped:", g.RegionsRemapped)
	b = appendField(b, " Dropped:", g.Dropped)
	b = appendField(b, " RPCOrphans:", g.RPCOrphans)
	return append(b, '}')
}

// appendField appends label and then v in decimal.
func appendField(b []byte, label string, v uint64) []byte {
	return strconv.AppendUint(append(b, label...), v, 10)
}

// relConfig is the reliable-channel configuration every scenario uses:
// the sweep's RTO, everything else defaulted.
func relConfig(cfg Config) core.ReliableConfig {
	return core.ReliableConfig{RTO: sim.Duration(cfg.RTOUS)}
}

// sumReliableStats folds retransmit/give-up counters from a set of
// reliable endpoints into the raw point.
func sumReliableStats(raw *pointRaw, rels ...*core.Reliable) {
	for _, r := range rels {
		s := r.Stats()
		raw.retransmits += s.Retransmits + s.GaveUp
	}
}

// encodeOp writes the operation identity a server echoes back into its
// response head — delivery under retransmission is not ordered, so a
// pipelined client matches responses to requests by content, not
// arrival order. Byte 0 names the client (or fan-out leg), bytes 1-2
// the operation; the rest is the usual stamp fill for payload-checksum
// variety.
func encodeOp(p []byte, client, op int) {
	p[0] = byte(client)
	p[1] = byte(op)
	p[2] = byte(op >> 8)
	if len(p) > 3 {
		stampPayload(p[3:], client, op)
	}
}

// decodeOp reads the operation index back out of an encodeOp'd head.
func decodeOp(p []byte) int { return int(p[1]) | int(p[2])<<8 }

// stampPayload writes a per-operation identity into the payload head
// over a constant fill, mirroring the cluster benchmarks' stamping
// scheme: the head is what the digest's payload checksum reads first.
func stampPayload(p []byte, a, b int) {
	n := len(p)
	if n > 16 {
		n = 16
	}
	for j := 0; j < n; j++ {
		p[j] = byte(a*131 + b*17 + j)
	}
}

// fillPayload initializes the constant body fill.
func fillPayload(p []byte) {
	for j := range p {
		p[j] = byte(j * 7)
	}
}
