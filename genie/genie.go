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
	"repro/internal/sim"
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

// Re-exported operation types: see their methods for results.
type (
	// Endpoint is one end of a windowed message channel with
	// credit-based flow control. Send reports only an error: the
	// output record it runs in belongs to the endpoint, which reuses it.
	// A message from Recv is borrowed until its Release and must not be
	// used afterwards.
	Endpoint = core.Endpoint
	// RPCClient issues request-response calls over a channel.
	RPCClient = core.RPCClient
	// Call is one outstanding RPC.
	Call = core.Call
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
	// Time is a point on the simulated clock, in microseconds.
	Time = sim.Time
	// Stats counts a host's data path events (outputs, inputs,
	// conversions, copyouts, swaps, drops).
	Stats = core.Stats
)

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

// Checksum modes. The zero ChecksumMode, the default, disables
// checksumming.
const (
	// ChecksumSeparate verifies with a distinct read pass, preserving
	// copy semantics on failure.
	ChecksumSeparate = core.ChecksumSeparate
	// ChecksumIntegrated folds verification into the copy; failures
	// leave faulty data in the application buffer.
	ChecksumIntegrated = core.ChecksumIntegrated
)

// ErrChecksum reports a failed payload verification.
var ErrChecksum = core.ErrChecksum

// options collects the functional options for New.
type options struct {
	cfg core.TestbedConfig
}

// Option configures the simulated network built by New.
type Option func(*options)

// WithConfig overrides the framework tunables.
func WithConfig(c Config) Option {
	return func(o *options) { o.cfg.Genie = c }
}

// WithMemory sets each host's physical memory size in page frames.
func WithMemory(frames int) Option {
	return func(o *options) { o.cfg.FramesPerHost = frames }
}

// Network is a simulated pair of hosts connected by an ATM link.
type Network struct {
	tb *core.Testbed
}

// New builds the two-host testbed of the paper's Section 7.
func New(opts ...Option) (*Network, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	tb, err := core.NewTestbed(o.cfg)
	if err != nil {
		return nil, err
	}
	return &Network{tb: tb}, nil
}

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

// NewRPCClient wraps a channel endpoint as an RPC client.
func NewRPCClient(ep *Endpoint) *RPCClient { return core.NewRPCClient(ep) }

// ServeRPC turns a channel endpoint into an RPC server: handler runs at
// request arrival on the simulated clock.
func ServeRPC(ep *Endpoint, handler func(req []byte) []byte, errFn func(error)) {
	core.ServeRPC(ep, handler, errFn)
}

// NewProcess creates an application on the host.
func (h *Host) NewProcess() *Process { return h.h.Genie.NewProcess() }

// CorruptNextTx arms single-shot fault injection on the host's adapter:
// one byte of the next transmitted frame is flipped on the wire
// (checksumming demonstrations).
func (h *Host) CorruptNextTx(off int) { h.h.NIC.CorruptNextTx(off) }

// Stats returns the host's Genie data path counters.
func (h *Host) Stats() Stats { return h.h.Genie.Stats() }
