// Package genie is the public API of the Genie I/O framework
// reproduction (Brustoloni & Steenkiste, "Effects of Buffering Semantics
// on I/O Performance", OSDI '96).
//
// It exposes a simulated two-host testbed connected by a Credit Net ATM
// link, on which applications exchange datagrams under any buffering
// semantics in the paper's taxonomy:
//
//	net, _ := genie.New()
//	sender := net.HostA().NewProcess()
//	receiver := net.HostB().NewProcess()
//
//	buf, _ := sender.Brk(8192)
//	sender.Write(buf, payload)
//	dst, _ := receiver.Brk(8192)
//
//	in, _ := receiver.Input(1, genie.EmulatedCopy, dst, len(payload))
//	out, _ := sender.Output(1, genie.EmulatedCopy, buf, len(payload))
//	net.Run()
//	// in.CompletedAt - out.StartedAt is the end-to-end latency on the
//	// simulated clock; receiver.Read(in.Addr, got) returns the data.
//
// All virtual memory machinery is real within the simulation: TCOW write
// faults, region hiding, pageout, and reference counting operate on
// simulated page frames, so integrity guarantees (and their violations
// under the weak semantics) are observable. Latencies follow the
// paper's measured cost model and reproduce its figures and tables; see
// package repro's benchmarks and the geniebench command.
package genie

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Semantics selects a buffering semantics from the taxonomy.
type Semantics = core.Semantics

// The eight semantics of the taxonomy.
const (
	// Copy is classic Unix buffering through system buffers.
	Copy = core.Copy
	// EmulatedCopy is copy optimized with TCOW and input alignment:
	// the same API and integrity, without copies for long data.
	EmulatedCopy = core.EmulatedCopy
	// Share performs I/O in place with weak integrity, wiring buffers.
	Share = core.Share
	// EmulatedShare is share optimized with input-disabled pageout.
	EmulatedShare = core.EmulatedShare
	// Move is V-style system-allocated buffering.
	Move = core.Move
	// EmulatedMove is move optimized with region hiding and caching.
	EmulatedMove = core.EmulatedMove
	// WeakMove is system-allocated weak-integrity buffering.
	WeakMove = core.WeakMove
	// EmulatedWeakMove is weak move optimized with input-disabled
	// pageout.
	EmulatedWeakMove = core.EmulatedWeakMove
)

// AllSemantics returns the eight semantics in taxonomy order.
func AllSemantics() []Semantics { return core.AllSemantics() }

// Buffering selects the device input buffering architecture.
type Buffering = netsim.InputBuffering

// Device input buffering architectures.
const (
	// EarlyDemux keeps per-connection buffer lists on the adapter and
	// DMAs data directly into preposted buffers.
	EarlyDemux = netsim.EarlyDemux
	// Pooled allocates fixed-size overlay pages from a device pool.
	Pooled = netsim.Pooled
	// Outboard stages data in adapter memory (store-and-forward).
	Outboard = netsim.OutboardBuffering
)

// Re-exported operation types: see their methods for results.
type (
	// Endpoint is one end of a windowed message channel with
	// credit-based flow control. Send reports only an error: the
	// output record it runs in belongs to the endpoint, which reuses it.
	Endpoint = core.Endpoint
	// Message is a received channel message, borrowed until Release;
	// it must not be used afterwards, and a second Release reports
	// ErrMessageReleased.
	Message = core.Message
	// RPCClient issues request-response calls over a channel.
	RPCClient = core.RPCClient
	// Call is one outstanding RPC.
	Call = core.Call
	// Segment is one piece of a gather (writev-style) output.
	Segment = core.Segment
	// Process is an application address space on a host.
	Process = core.Process
	// OutputOp tracks an output through prepare and dispose.
	OutputOp = core.OutputOp
	// InputOp tracks an input through prepare, ready, and dispose.
	InputOp = core.InputOp
	// Config holds the framework tunables (thresholds, alignment).
	Config = core.Config
	// Addr is a simulated virtual address.
	Addr = vm.Addr
	// Region is a virtual memory region (system-allocated buffers).
	Region = vm.Region
	// Platform describes a machine from the paper's Table 5.
	Platform = cost.Platform
	// Net describes a link technology (name and line rate).
	Net = cost.Network
	// Time is a point on the simulated clock, in microseconds.
	Time = sim.Time
	// Duration is a span of simulated time, in microseconds.
	Duration = sim.Duration
	// Stats counts a host's data path events (outputs, inputs,
	// conversions, copyouts, swaps, drops).
	Stats = core.Stats
	// FaultSpec configures seeded deterministic fault injection
	// (WithFaults). Rates are per-decision probabilities; the zero spec
	// disables injection.
	FaultSpec = faults.Spec
	// Reliable is one end of a reliable channel: sequence numbers,
	// checksums, acknowledgements, and sim-clock retransmission recover
	// injected drops, duplicates, reorderings, and corruptions.
	Reliable = core.Reliable
	// ReliableConfig tunes the retransmit machinery (zero value:
	// defaults).
	ReliableConfig = core.ReliableConfig
	// ReliableStats counts the recovery machinery's work.
	ReliableStats = core.ReliableStats
)

// ParseFaultSpec parses the geniebench fault-spec syntax (chaos -spec,
// workload -faults), e.g.
// "seed=1,drop=0.2,corrupt=0.05".
func ParseFaultSpec(s string) (FaultSpec, error) { return faults.ParseSpec(s) }

// NoAddr is the destination address for input under the
// system-allocated semantics (the move family), where the system — not
// the caller — chooses the buffer: pass it as dstVA to make the ignored
// argument explicit. The completed input's Addr reports the actual
// location.
const NoAddr Addr = 0

// DefaultConfig returns the paper's tunable settings.
func DefaultConfig() Config { return core.DefaultConfig() }

// ChecksumMode selects end-to-end payload checksumming (see the core
// package's Section 9 discussion).
type ChecksumMode = core.ChecksumMode

// Checksum modes.
const (
	// ChecksumNone disables checksumming.
	ChecksumNone = core.ChecksumNone
	// ChecksumSeparate verifies with a distinct read pass, preserving
	// copy semantics on failure.
	ChecksumSeparate = core.ChecksumSeparate
	// ChecksumIntegrated folds verification into the copy; failures
	// leave faulty data in the application buffer.
	ChecksumIntegrated = core.ChecksumIntegrated
)

// ErrChecksum reports a failed payload verification.
var ErrChecksum = core.ErrChecksum

// ErrMessageReleased reports a second Release of a channel Message.
var ErrMessageReleased = core.ErrMessageReleased

// ErrBadBuffer reports an invalid buffer range: a non-positive or
// over-MTU length, or an address that does not start a usable region.
var ErrBadBuffer = core.ErrBadBuffer

// ErrOutOfMemory reports exhausted physical memory on a host built
// without WithDemandPaging (with it, the system pages out instead).
var ErrOutOfMemory = mem.ErrOutOfMemory

// Platforms from the paper's Table 5.
var (
	MicronP166      = cost.MicronP166
	GatewayP5_90    = cost.GatewayP5_90
	AlphaStation255 = cost.AlphaStation255
)

// Link technologies.
var (
	// OC3 is the Credit Net ATM link at OC-3 (155 Mbps), the paper's
	// measured configuration and the default.
	OC3 = cost.CreditNetOC3
	// OC12 is the ATM link at OC-12 (622 Mbps), the paper's
	// extrapolation.
	OC12 = cost.CreditNetOC12
)

// NetAt describes a custom link running at rateMbps.
func NetAt(rateMbps float64) Net { return Net{Name: "custom", RateMbps: rateMbps} }

// options collects the functional options for New.
type options struct {
	cfg      core.TestbedConfig
	platform Platform
	network  Net
	modelSet bool
	sink     Sink
}

// Option configures the simulated network built by New.
type Option func(*options)

// WithBuffering selects the adapters' input architecture (default:
// early demultiplexing).
func WithBuffering(b Buffering) Option {
	return func(o *options) { o.cfg.Buffering = b }
}

// WithPlatform selects the host machine model (default: Micron P166).
// Composes with WithNetwork; the two axes are independent.
func WithPlatform(p Platform) Option {
	return func(o *options) {
		o.platform = p
		o.modelSet = true
	}
}

// WithNetwork selects the link technology (default: OC3). Composes with
// WithPlatform.
func WithNetwork(n Net) Option {
	return func(o *options) {
		o.network = n
		o.modelSet = true
	}
}

// WithDeviceOffset sets the payload placement offset within the first
// input page (unstripped headers under pooled buffering). Applications
// discover it with Host.PreferredAlignment.
func WithDeviceOffset(off int) Option {
	return func(o *options) { o.cfg.OverlayOff = off }
}

// WithConfig overrides the framework tunables.
func WithConfig(c Config) Option {
	return func(o *options) { o.cfg.Genie = c }
}

// WithMemory sets each host's physical memory size in page frames.
func WithMemory(frames int) Option {
	return func(o *options) { o.cfg.FramesPerHost = frames }
}

// WithMTU fragments datagrams into MTU-sized packets on the wire,
// reassembled per the receiving adapter's input architecture (under
// early demultiplexing, fragments DMA straight into the posted buffer
// at their offsets — no reassembly buffer exists).
func WithMTU(mtu int) Option {
	return func(o *options) { o.cfg.MTU = mtu }
}

// WithDemandPaging lets memory pressure trigger the pageout daemon
// instead of failing allocations. Input-referenced and wired pages are
// never evicted (input-disabled pageout).
func WithDemandPaging() Option {
	return func(o *options) { o.cfg.DemandPaging = true }
}

// WithFaults arms seeded deterministic fault injection on both hosts:
// wire drops, duplicates, reorderings, payload corruption, transient
// allocation failures, and pool admission denials, each at its spec
// rate. The same spec always replays the same fault script. A
// seed-only spec attaches an armed injector that never fires, leaving
// the simulation bit-identical to an uninjected one.
func WithFaults(s FaultSpec) Option {
	return func(o *options) { o.cfg.Faults = s }
}

// Network is a simulated pair of hosts connected by an ATM link.
type Network struct {
	tb *core.Testbed
	tr *Trace
}

// New builds the two-host testbed of the paper's Section 7.
func New(opts ...Option) (*Network, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.modelSet {
		p, nt := o.platform, o.network
		if p.Name == "" {
			p = cost.MicronP166
		}
		if nt.Name == "" {
			nt = cost.CreditNetOC3
		}
		o.cfg.Model = cost.NewModel(p, nt)
	}
	tb, err := core.NewTestbed(o.cfg)
	if err != nil {
		return nil, err
	}
	n := &Network{tb: tb}
	if o.sink != nil {
		n.tr = trace.New(o.sink)
		tb.SetTracer(n.tr)
	}
	return n, nil
}

// Tracer returns the network's tracing handle: nil when the network was
// built without WithTracer. The handle (and every *Trace) is nil-safe,
// so it can be passed around without guarding.
func (n *Network) Tracer() *Trace { return n.tr }

// Host is one machine of the pair.
type Host struct {
	h *core.Host
}

// HostA returns the first host.
func (n *Network) HostA() *Host { return &Host{n.tb.A} }

// HostB returns the second host.
func (n *Network) HostB() *Host { return &Host{n.tb.B} }

// Run drains the simulation, returning the final virtual time.
func (n *Network) Run() Time { return n.tb.Run() }

// Now returns the current virtual time.
func (n *Network) Now() Time { return n.tb.Eng.Now() }

// PageSize returns the hosts' page size in bytes.
func (n *Network) PageSize() int { return n.tb.Model.Platform.PageSize }

// Transfer posts an input on the receiver, performs an output on the
// sender, runs the simulation to completion, and returns both
// operations. For system-allocated semantics dstVA is ignored and the
// input's Addr reports where the system placed the data.
func (n *Network) Transfer(sender, receiver *Process, port int, sem Semantics, srcVA, dstVA Addr, length int) (*OutputOp, *InputOp, error) {
	return n.tb.Transfer(sender, receiver, port, sem, srcVA, dstVA, length)
}

// NewChannel connects two processes with a bidirectional, windowed
// message channel using the chosen buffering semantics, with
// credit-based flow control (each side preposts `window` buffers of
// bufSize bytes).
func (n *Network) NewChannel(a, b *Process, basePort int, sem Semantics, bufSize, window int) (*Endpoint, *Endpoint, error) {
	return core.NewChannel(a, b, basePort, sem, bufSize, window)
}

// NewReliableChannel connects two processes with a reliable message
// channel: payloads up to bufSize bytes are delivered exactly once with
// verified integrity, surviving any faults injected via WithFaults.
func (n *Network) NewReliableChannel(a, b *Process, basePort int, sem Semantics, bufSize, window int, cfg ReliableConfig) (*Reliable, *Reliable, error) {
	return core.NewReliableChannel(a, b, basePort, sem, bufSize, window, cfg)
}

// NewRPCClient wraps a channel endpoint as an RPC client.
func NewRPCClient(ep *Endpoint) *RPCClient { return core.NewRPCClient(ep) }

// ServeRPC turns a channel endpoint into an RPC server: handler runs at
// request arrival on the simulated clock.
func ServeRPC(ep *Endpoint, handler func(req []byte) []byte, errFn func(error)) {
	core.ServeRPC(ep, handler, errFn)
}

// Name returns the host name.
func (h *Host) Name() string { return h.h.Name }

// NewProcess creates an application on the host.
func (h *Host) NewProcess() *Process { return h.h.Genie.NewProcess() }

// PreferredAlignment reports the device's preferred input alignment —
// the query interface of Section 5.2 that applications use for
// application input alignment.
func (h *Host) PreferredAlignment() int { return h.h.Genie.PreferredAlignment() }

// FreeFrames returns the host's free physical page frames.
func (h *Host) FreeFrames() int { return h.h.Phys.FreeFrames() }

// CorruptNextTx arms single-shot fault injection on the host's adapter:
// one byte of the next transmitted frame is flipped on the wire
// (checksumming demonstrations).
func (h *Host) CorruptNextTx(off int) { h.h.NIC.CorruptNextTx(off) }

// Stats returns the host's Genie data path counters.
func (h *Host) Stats() Stats { return h.h.Genie.Stats() }
