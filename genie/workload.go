package genie

import (
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The closed-loop workload surface: sweep buffering semantics × queue
// depth × offered load under sustained traffic and locate each
// semantics' rule-3 transition — the smallest queue depth at which its
// heaviest-load operating point stops being bimodal. Three scenarios
// are available: "fileserver" (N pipelined think-time clients against
// one server), "stream" (fixed-bitrate frames through a bounded sender
// queue), and "fanout" (one client scattering to N servers). Every
// sweep is a deterministic simulation, bit-identical at any worker
// count; the returned stats carry the digest proving it.

// Workload scenario names.
const (
	FileServerScenario = workload.FileServer
	StreamScenario     = workload.Stream
	FanOutScenario     = workload.FanOut
)

// WorkloadScenarios lists the valid scenario names.
func WorkloadScenarios() []string { return workload.Scenarios() }

type (
	// WorkloadStats is a full sweep outcome: per-semantics operating
	// points, transition depths, the determinism digest, and the
	// per-worker-count runs that verified it.
	WorkloadStats = experiments.WorkloadReport
	// WorkloadResult is one sweep at one worker count.
	WorkloadResult = workload.Result
	// WorkloadScheme is one buffering semantics' sweep plus its located
	// transition depth (-1 when every depth stays bimodal).
	WorkloadScheme = workload.Scheme
	// WorkloadPoint is one (depth, load) operating point's measurements.
	WorkloadPoint = workload.Point
	// LatencySummary is an exact nearest-rank percentile summary of an
	// operating point's completed-operation latencies, in simulated
	// microseconds.
	LatencySummary = stats.LatencySummary
)

// workloadOptions collects the functional options for RunWorkload.
type workloadOptions struct {
	cfg experiments.WorkloadConfig
}

// WorkloadOption configures one closed-loop workload sweep.
type WorkloadOption func(*workloadOptions)

// WithScenario selects the traffic shape: FileServerScenario (default),
// StreamScenario, or FanOutScenario.
func WithScenario(name string) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Scenario = name }
}

// WithWorkloadSemantics restricts the sweep to the given semantics
// (default: all eight).
func WithWorkloadSemantics(sems ...Semantics) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Semantics = sems }
}

// WithDepths sets the swept queue depths in messages: the channel
// receive window (fileserver, fanout) or the sender-side frame queue
// (stream). Default {1, 2, 4, 8, 16}.
func WithDepths(depths ...int) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Depths = depths }
}

// WithLoads sets the swept offered-load multipliers relative to the
// base think time or bitrate. Default {0.5, 1, 2}.
func WithLoads(loads ...float64) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Loads = loads }
}

// WithClients sets the closed-loop client count (fileserver) or fan-out
// width (fanout). Default 4.
func WithClients(n int) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Clients = n }
}

// WithOps sets the operations per client (frames, for stream).
// Default 12.
func WithOps(n int) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Ops = n }
}

// WithMessageBytes sets the response/frame payload size. Default 2048.
func WithMessageBytes(n int) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.MsgBytes = n }
}

// WithThinkTime sets the base think time in simulated microseconds
// between a client's operations at load 1.0. Default 400.
func WithThinkTime(us float64) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.ThinkUS = us }
}

// WithPipeline sets the concurrently outstanding operations per client
// — the read-ahead the swept queue depth must absorb. Default 4.
func WithPipeline(k int) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Pipeline = k }
}

// WithStreamRate sets the stream scenario's target bitrate in MB/s at
// load 1.0. Default 12.
func WithStreamRate(mbps float64) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.StreamMBps = mbps }
}

// WithWorkloadRTO sets the reliable channels' retransmission timeout in
// simulated microseconds; it must sit well above the loaded round-trip
// time so a retransmit means a real queue-exhaustion drop. Default
// 12000.
func WithWorkloadRTO(us float64) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.RTOUS = us }
}

// WithWorkloadFaults arms seeded deterministic fault injection on every
// host of the workload cluster.
func WithWorkloadFaults(spec FaultSpec) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Faults = spec }
}

// WithWorkloadSeed sets the think-time jitter seed. Default 1.
func WithWorkloadSeed(seed uint64) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Seed = seed }
}

// WithWorkloadWorkers sets the shard-advance worker counts the sweep is
// digest-compared across. Default {1, 4}; the first is the reported
// baseline, a repeated count runs once, and a count below 1 is an error.
func WithWorkloadWorkers(workers ...int) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.Workers = workers }
}

// WithPointWorkers sets the number of goroutines independent
// (semantics, depth, load) points fan across — a different axis from
// WithWorkloadWorkers, which parallelizes inside one point's cluster
// engine. 0 (the default) means GOMAXPROCS; 1 walks the grid serially.
// The digest is byte-identical at any value.
func WithPointWorkers(n int) WorkloadOption {
	return func(o *workloadOptions) { o.cfg.PointWorkers = n }
}

// WithSerialColdComparison additionally times the whole verification
// run in the serial/cold regime (no point parallelism, no cluster
// recycling) and reports the optimized run's speedup over it; the cold
// digest participates in the determinism verdict. Both regimes simulate
// every point at every worker count, so the speedup is point
// parallelism plus recycling and nothing else.
func WithSerialColdComparison() WorkloadOption {
	return func(o *workloadOptions) { o.cfg.CompareSerialCold = true }
}

// RunWorkload executes one closed-loop workload sweep at every
// configured worker count, digest-compares the runs, and returns the
// serial baseline's schemes with the determinism verdict.
func RunWorkload(opts ...WorkloadOption) (*WorkloadStats, error) {
	var o workloadOptions
	for _, opt := range opts {
		opt(&o)
	}
	return experiments.RunWorkload(o.cfg)
}
