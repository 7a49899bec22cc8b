package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Host bundles one machine: physical memory, VM system, adapter, and
// the Genie framework instance.
type Host struct {
	Name  string
	Phys  *mem.PhysMem
	Sys   *vm.System
	NIC   *netsim.NIC
	Genie *Genie
}

// TestbedConfig describes the two-machine experimental setup of
// Section 7: a pair of hosts connected by a Credit Net ATM link.
type TestbedConfig struct {
	// Model prices primitive operations and the link; defaults to the
	// paper's baseline (Micron P166 at OC-3).
	Model *cost.Model
	// Buffering selects the receiver-side device architecture.
	Buffering netsim.InputBuffering
	// OverlayOff is the device's payload placement offset within the
	// first input page (unstripped headers); applications query it via
	// PreferredAlignment.
	OverlayOff int
	// FramesPerHost sizes each host's physical memory; 0 picks a size
	// ample for 60 KB datagram sweeps.
	FramesPerHost int
	// PoolPages sizes the device overlay pool (pooled buffering).
	PoolPages int
	// Plane selects the data-plane representation for both hosts'
	// physical memory: mem.Bytes materializes every page, mem.Symbolic
	// carries provenance descriptors and splices instead of copying.
	// nil defaults to mem.Bytes. Figures are identical on either plane;
	// only simulator wall-clock differs.
	Plane mem.DataPlane
	// Genie holds framework tunables; zero value takes the defaults.
	Genie Config
	// Faults configures seeded deterministic fault injection on both
	// hosts (wire drop/duplicate/reorder/corrupt, transient allocation
	// failures, pool admission denials). The zero spec disables
	// injection entirely; a seed-only spec attaches an armed injector
	// that never fires, leaving the simulation bit-identical.
	Faults faults.Spec
}

// outboardBytes sizes each host's adapter staging memory under outboard
// buffering.
const outboardBytes = 256 << 10

// Testbed is a two-host experimental setup on one simulation engine.
type Testbed struct {
	Eng   *sim.Engine
	Model *cost.Model
	A, B  *Host
	Link  *netsim.Link

	inj *faults.Injector // shared by both hosts; nil when faults are off
}

// normalizeTestbedConfig validates sizes and fills defaults. Testbed
// and Cluster share it, so a cluster host is configured exactly like a
// pairwise one.
func normalizeTestbedConfig(cfg TestbedConfig) (TestbedConfig, error) {
	if cfg.FramesPerHost < 0 || cfg.PoolPages < 0 || cfg.OverlayOff < 0 {
		return cfg, fmt.Errorf("core: negative testbed size (frames %d, pool %d, overlay off %d)",
			cfg.FramesPerHost, cfg.PoolPages, cfg.OverlayOff)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return cfg, fmt.Errorf("core: testbed faults: %w", err)
	}
	if cfg.Model == nil {
		cfg.Model = cost.Baseline()
	}
	if cfg.FramesPerHost == 0 {
		cfg.FramesPerHost = 512
	}
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 64
	}
	if cfg.Genie == (Config{}) {
		cfg.Genie = DefaultConfig()
	}
	if cfg.Plane == nil {
		cfg.Plane = mem.Bytes
	}
	return cfg, nil
}

// buildHost assembles one machine — physical memory, VM, adapter,
// Genie — on the given engine. cfg must be normalized. The host is not
// yet attached to any link or fabric.
func buildHost(name string, eng *sim.Engine, cfg TestbedConfig) (*Host, error) {
	pm := mem.NewWithPlane(cfg.FramesPerHost, cfg.Model.Platform.PageSize, cfg.Plane)
	sys := vm.NewSystem(pm)
	nicCfg := netsim.NICConfig{
		Name:       name,
		Buffering:  cfg.Buffering,
		OverlayOff: cfg.OverlayOff,
	}
	switch cfg.Buffering {
	case netsim.Pooled:
		pool, err := netsim.NewOverlayPool(pm, cfg.PoolPages)
		if err != nil {
			return nil, err
		}
		nicCfg.Pool = pool
	case netsim.OutboardBuffering:
		nicCfg.Outboard = netsim.NewOutboardMemory(outboardBytes)
	}
	nic, err := netsim.NewNIC(eng, nicCfg)
	if err != nil {
		return nil, err
	}
	g, err := NewGenie(name, eng, cfg.Model, sys, nic, cfg.Genie)
	if err != nil {
		return nil, err
	}
	pm.Seal() // the pools' pages stay allocated across Reset
	return &Host{Name: name, Phys: pm, Sys: sys, NIC: nic, Genie: g}, nil
}

// NewTestbed builds the two-machine setup.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	cfg, err := normalizeTestbedConfig(cfg)
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	tb := &Testbed{Eng: eng, Model: cfg.Model}

	if tb.A, err = buildHost("hostA", eng, cfg); err != nil {
		return nil, fmt.Errorf("core: testbed host A: %w", err)
	}
	if tb.B, err = buildHost("hostB", eng, cfg); err != nil {
		return nil, fmt.Errorf("core: testbed host B: %w", err)
	}
	base := cfg.Model.Base()
	tb.Link = netsim.NewLink(eng, base.PerByte, base.Fixed, tb.A.NIC, tb.B.NIC)
	if tb.inj, err = faults.New(cfg.Faults); err != nil {
		return nil, err
	}
	// Attach only after both hosts are fully built: pool and kernel-pool
	// construction must never see injected allocation failures. The
	// injector is shared (and the engine single-threaded), so the fault
	// script is one deterministic stream across the testbed.
	tb.A.armFaults(tb.inj)
	tb.B.armFaults(tb.inj)
	return tb, nil
}

// armFaults wires inj into the host's adapter and allocator; a nil inj
// (fault injection off) arms nothing.
func (h *Host) armFaults(inj *faults.Injector) {
	if inj == nil {
		return
	}
	h.NIC.SetFaultInjector(inj)
	h.Phys.SetAllocFault(inj.FailAlloc)
}

// reset rewinds the host's components in dependency order: physical
// memory first, since the VM system drops its references into it and
// the adapter's pools reacquire their pages from it. Every component
// Reset detaches fault injection; the caller re-arms it last.
func (h *Host) reset() {
	h.Phys.Reset()
	h.Sys.Reset()
	h.NIC.Reset()
	h.Genie.Reset()
}

// Injector returns the testbed's fault injector, nil when the config
// has fault injection off. Harnesses use it to disarm injection around
// setup/teardown and to read fired-fault counters.
func (tb *Testbed) Injector() *faults.Injector { return tb.inj }

// Run drains the simulation.
func (tb *Testbed) Run() sim.Time { return tb.Eng.Run() }

// SetTracer installs a structured-event tracer on the testbed: every
// layer of both hosts (framework, adapter, VM) emits into the same sink,
// each host under its own name and all events stamped from the shared
// simulation clock. A nil base detaches tracing everywhere. Testbed
// Reset also clears tracing (via the per-component Resets), so recycled
// testbeds never leak events into a later experiment.
func (tb *Testbed) SetTracer(base *trace.Tracer) {
	for _, h := range []*Host{tb.A, tb.B} {
		var tr *trace.Tracer
		if base != nil {
			tr = base.WithClock(tb.Eng).WithHost(h.Name)
		}
		h.Genie.SetTracer(tr)
		h.NIC.SetTracer(tr)
		h.Sys.SetTracer(tr)
	}
}

// Reset returns the whole testbed object graph to its post-construction
// state without reallocating frame backing stores: the engine clock and
// counters rewind to zero, each host's physical memory returns to its
// canonical free list (keeping materialized frame data), the VM systems
// drop every address space and object, and the NIC overlay and kernel
// buffer pools get back their construction pages in construction order
// — so a Reset testbed allocates the same frame ids, object ids, and
// address space ids as a fresh one and any subsequent simulation is
// bit-identical to one on a newly built testbed. Processes and regions
// created on the testbed before the Reset must not be used afterwards.
// It never fails; the error result is the recycler's Reset contract.
//
// Reset's work is O(what the run touched), not O(machine size). The
// pools' pages are boot frames (buildHost seals each PhysMem after the
// last pool), which physical memory keeps allocated across its Reset;
// it re-initializes only the other frames allocated since the last
// Reset, and each pool re-admits only the pages it lent out. The VM
// systems walk only the live regions and the objects the run created,
// and hand their page tables and page slots, cleared, to size-classed
// spare lists (see vm.System.Reset); each Genie keeps the channel
// records its endpoints used for the next run's channels (see
// Genie.Reset). A warm Reset allocates nothing.
func (tb *Testbed) Reset() error {
	tb.Eng.Reset()
	tb.A.reset()
	tb.B.reset()
	// Re-arm fault injection last: component resets must never see
	// injected failures, and the rewound PRNG makes a recycled testbed
	// replay the identical fault script a fresh one would.
	tb.inj.Reset()
	tb.A.armFaults(tb.inj)
	tb.B.armFaults(tb.inj)
	return nil
}

// Transfer performs one measured datagram transfer from a sender process
// on host A to a receiver process on host B: the receiver preposts the
// input, the sender outputs, and the simulation runs to completion. It
// returns the completed operations; end-to-end latency is
// in.CompletedAt - out.StartedAt.
func (tb *Testbed) Transfer(sender, receiver *Process, port int, sem Semantics, srcVA, dstVA vm.Addr, length int) (*OutputOp, *InputOp, error) {
	in, err := receiver.Input(port, sem, dstVA, length)
	if err != nil {
		return nil, nil, fmt.Errorf("core: input: %w", err)
	}
	out, err := sender.Output(port, sem, srcVA, length)
	if err != nil {
		return nil, nil, fmt.Errorf("core: output: %w", err)
	}
	tb.Eng.Run()
	if out.Err != nil {
		return out, in, fmt.Errorf("core: output failed: %w", out.Err)
	}
	if in.Err != nil {
		return out, in, fmt.Errorf("core: input failed: %w", in.Err)
	}
	if !in.Done {
		return out, in, fmt.Errorf("core: input never completed")
	}
	return out, in, nil
}

// RecycleIOBuffer returns a consumed (moved-in) input region to the
// region cache without an output, modeling the steady state of an
// application with balanced input and output that reuses system-
// allocated buffers (Section 2.1). The weak flag selects the queue.
func (p *Process) RecycleIOBuffer(r *vm.Region, weak bool) error {
	if err := r.MarkMovingOut(); err != nil {
		return err
	}
	if weak {
		return r.MarkWeaklyMovedOut()
	}
	p.as.Invalidate(r.Start(), r.Len())
	return r.MarkMovedOut()
}
