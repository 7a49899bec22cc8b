package genie

import (
	"repro/internal/core"
	"repro/internal/topo"
)

// Topology describes an N-host network shape: a host count plus the set
// of host pairs that may open channels through the switch fabric.
type Topology = topo.Spec

// RingTopology connects host i to host (i+1) mod n — the halo-exchange shape of
// bulk-parallel applications.
func RingTopology(n int) Topology { return topo.Ring(n) }

// Cluster is a simulated N-host network: every host configured like a
// testbed host, attached to a store-and-forward switch fabric, each
// advancing on its own engine shard. With workers > 1 the shards run
// concurrently under conservative synchronization; results are
// bit-identical at any worker count.
type Cluster struct {
	c *core.Cluster
}

// NewCluster builds an N-host network with the given topology. workers
// is the number of goroutines advancing engine shards (values below 1
// mean serial; the simulated result never depends on it). The usual
// options apply per host.
func NewCluster(t Topology, workers int, opts ...Option) (*Cluster, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	c, err := core.NewCluster(core.ClusterConfig{
		TestbedConfig: o.cfg,
		Topo:          t,
		Workers:       workers,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Host returns host i of the topology.
func (c *Cluster) Host(i int) *Host { return &Host{c.c.Host(i)} }

// Run advances the whole cluster until no events remain, returning the
// final simulated time.
func (c *Cluster) Run() Time { return c.c.Run() }

// Now returns the maximum simulated time across hosts.
func (c *Cluster) Now() Time { return c.c.Now() }

// Connect opens a bidirectional windowed channel between processes on
// two hosts that are adjacent in the topology. Ports and fabric routes
// are allocated automatically; the returned endpoints work exactly like
// the testbed's NewChannel endpoints.
func (c *Cluster) Connect(a, b *Process, sem Semantics, bufSize, window int) (*Endpoint, *Endpoint, error) {
	return c.c.Connect(a, b, sem, bufSize, window)
}
