package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ClusterConfig describes an N-host experimental setup: the same
// per-host configuration as the pairwise testbed, applied to every
// host of a topology, advanced by a sharded parallel engine.
type ClusterConfig struct {
	TestbedConfig
	// Topo names the hosts and which pairs may open channels. Its wire
	// parameters override the cost model's base link when nonzero.
	Topo topo.Spec
	// Workers is the goroutine count advancing engine shards per
	// synchronization window; values below 1 mean serial. Results are
	// bit-identical at any worker count.
	Workers int
}

// Cluster is an N-host setup: one engine shard, physical memory, VM,
// adapter, and Genie instance per host, all joined by a switch fabric
// whose fixed wire latency is the conservative lookahead.
type Cluster struct {
	Sim    *sim.Cluster
	Model  *cost.Model
	Fabric *netsim.Fabric
	Hosts  []*Host

	injs     []*faults.Injector
	hostOf   map[*Genie]int
	allowed  map[[2]int]bool
	nextPort int
}

// NewCluster builds the topology: every host configured exactly like a
// pairwise-testbed host, attached to a shared fabric instead of a
// point-to-point link.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	var err error
	cfg.TestbedConfig, err = normalizeTestbedConfig(cfg.TestbedConfig)
	if err != nil {
		return nil, err
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("core: cluster: %w", err)
	}
	base := cfg.Model.Base()
	perByte, fixed := base.PerByte, base.Fixed
	if cfg.Topo.PerByteUS > 0 {
		perByte = cfg.Topo.PerByteUS
	}
	if cfg.Topo.FixedUS > 0 {
		fixed = cfg.Topo.FixedUS
	}
	simc, err := sim.NewCluster(cfg.Topo.Hosts, sim.Duration(fixed), cfg.Workers)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Sim:     simc,
		Model:   cfg.Model,
		hostOf:  make(map[*Genie]int),
		allowed: make(map[[2]int]bool),
	}
	c.Fabric = netsim.NewFabric(perByte, fixed, simc.Post)
	for i := 0; i < cfg.Topo.Hosts; i++ {
		h, err := buildHost(fmt.Sprintf("host%d", i), simc.Shard(i), cfg.TestbedConfig)
		if err != nil {
			return nil, fmt.Errorf("core: cluster host %d: %w", i, err)
		}
		c.Fabric.Attach(simc.Shard(i), h.NIC)
		c.Hosts = append(c.Hosts, h)
		c.hostOf[h.Genie] = i
		// Each host draws faults from its own seed-derived stream: a
		// shared injector would consume its PRNG in shard execution
		// order, which the worker count must not influence.
		var inj *faults.Injector
		if cfg.Faults.Enabled() {
			spec := cfg.Faults
			spec.Seed = deriveSeed(cfg.Faults.Seed, i)
			if inj, err = faults.New(spec); err != nil {
				return nil, err
			}
			h.armFaults(inj)
		}
		c.injs = append(c.injs, inj)
	}
	for _, p := range cfg.Topo.Pairs {
		c.allowed[[2]int{p[0], p[1]}] = true
		c.allowed[[2]int{p[1], p[0]}] = true
	}
	return c, nil
}

// deriveSeed mixes a base seed with a host index (splitmix64 finalizer)
// so per-host fault streams are decorrelated but fully determined by
// the cluster seed.
func deriveSeed(seed uint64, host int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(host+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Host returns host i.
func (c *Cluster) Host(i int) *Host { return c.Hosts[i] }

// Size returns the number of hosts.
func (c *Cluster) Size() int { return len(c.Hosts) }

// Workers returns the shard-advance worker count.
func (c *Cluster) Workers() int { return c.Sim.Workers() }

// Injector returns host i's fault injector, nil when faults are off.
func (c *Cluster) Injector(i int) *faults.Injector { return c.injs[i] }

// Reset returns the whole cluster object graph to its post-construction
// state without reallocating it: engine shards (clocks, heaps, arenas)
// and staged cross-posts rewind, the fabric forgets its routes and
// idles every egress port, and each host's physical memory, VM system,
// adapter, and Genie instance are rewound exactly as Testbed.Reset
// rewinds a pairwise host. The port allocator restarts at zero, so
// channels reopened on a recycled cluster get the identical (host,
// port) circuits a fresh cluster would assign — which is what makes a
// recycled cluster simulate bit-identically to a newly built one.
// Processes, endpoints, and reliable channels created before the Reset
// must not be used afterwards. Per-host fault injectors rewind last,
// mirroring Testbed.Reset: component resets must never see injected
// failures, and the rewound PRNGs replay the identical per-host fault
// scripts. Like Testbed.Reset, it costs O(what the run touched): each
// host's pools keep their construction pages and re-admit only those
// they lent out, however large the pools, and it never fails. What a
// host only stores for reuse survives, back in the state it was made
// in: each Genie keeps the channel records its endpoints used (window
// slots, output and send records, payload slices) and each VM system
// its spare page tables and page slots, so the channels of the next
// point on the cluster take those instead of allocating.
func (c *Cluster) Reset() error {
	c.Sim.Reset()
	c.Fabric.Reset()
	c.nextPort = 0
	for _, h := range c.Hosts {
		h.reset()
	}
	for i, inj := range c.injs {
		inj.Reset()
		c.Hosts[i].armFaults(inj)
	}
	return nil
}

// Drop ends the cluster's life: each host's physical memory hands its
// page backing stores to mem's wire pool for the next build
// (mem.PhysMem.Discard), and the cluster is left without hosts.
// Nothing made on the cluster may be used afterwards, nor may the
// cluster itself be Reset or run again. No host may carry a Storage,
// whose device shares pages with the host's frames.
func (c *Cluster) Drop() {
	for _, h := range c.Hosts {
		h.Phys.Discard()
	}
	c.Hosts = nil
}

// Run advances the whole cluster until no events remain on any shard,
// returning the final cluster time.
func (c *Cluster) Run() sim.Time { return c.Sim.Run() }

// Now returns the maximum clock value across shards.
func (c *Cluster) Now() sim.Time { return c.Sim.Now() }

// Connect opens a bidirectional windowed channel between processes a
// and b, whose hosts must be adjacent in the topology. It allocates a
// globally unique port pair and installs the fabric's virtual-circuit
// routes for both directions — this is the (host, port) binding that
// replaces the pairwise testbed's fixed peer assumption.
func (c *Cluster) Connect(a, b *Process, sem Semantics, bufSize, window int) (*Endpoint, *Endpoint, error) {
	ha, ok := c.hostOf[a.g]
	if !ok {
		return nil, nil, fmt.Errorf("core: cluster connect: process %q not on this cluster", a.g.Name())
	}
	hb, ok := c.hostOf[b.g]
	if !ok {
		return nil, nil, fmt.Errorf("core: cluster connect: process %q not on this cluster", b.g.Name())
	}
	if ha == hb {
		return nil, nil, fmt.Errorf("core: cluster connect: both processes on host %d", ha)
	}
	if !c.allowed[[2]int{ha, hb}] {
		return nil, nil, fmt.Errorf("core: cluster connect: topology has no pair (%d,%d)", ha, hb)
	}
	basePort := c.nextPort
	c.nextPort += 2
	// Endpoint a receives on basePort and sends to basePort+1; b the
	// reverse. Routes are keyed by the transmitting host.
	if err := c.Fabric.Route(ha, basePort+1, hb); err != nil {
		return nil, nil, err
	}
	if err := c.Fabric.Route(hb, basePort, ha); err != nil {
		return nil, nil, err
	}
	return NewChannel(a, b, basePort, sem, bufSize, window)
}

// ConnectReliable opens a reliable channel between processes a and b
// over the cluster fabric: the cluster-topology analogue of
// NewReliableChannel, with the same framing overhead (frames grow by
// the reliable header) and the same credit-flow-control-off discipline
// — a dropped frame would strand its credit, and the retransmit layer
// windows for itself. This is what lets closed-loop workloads run
// fault-armed on a multi-host topology and recover from pool-
// exhaustion drops.
func (c *Cluster) ConnectReliable(a, b *Process, sem Semantics, bufSize, window int, rcfg ReliableConfig) (*Reliable, *Reliable, error) {
	ea, eb, err := c.Connect(a, b, sem, bufSize+relHeaderLen, window)
	if err != nil {
		return nil, nil, err
	}
	ea.noCredits, eb.noCredits = true, true
	return newReliable(ea, rcfg), newReliable(eb, rcfg), nil
}
