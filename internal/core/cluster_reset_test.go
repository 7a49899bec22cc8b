package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// checkClusterPristine asserts every observable of the cluster matches
// a freshly built reference: clock rewound, per-host stats zeroed, free
// lists full, and memory invariants intact — the multi-host mirror of
// checkPristine for testbeds.
func checkClusterPristine(t *testing.T, c, fresh *Cluster) {
	t.Helper()
	if now := c.Now(); now != 0 {
		t.Errorf("cluster clock = %v after Reset, want 0", now)
	}
	for i := range c.Hosts {
		h, fh := c.Hosts[i], fresh.Hosts[i]
		if err := h.Phys.CheckInvariants(); err != nil {
			t.Errorf("host %d memory invariants after Reset: %v", i, err)
		}
		if got, want := h.Phys.FreeFrames(), fh.Phys.FreeFrames(); got != want {
			t.Errorf("host %d free frames = %d after Reset, fresh cluster has %d", i, got, want)
		}
		if got := h.Sys.Stats(); got != fh.Sys.Stats() {
			t.Errorf("host %d VM stats = %+v after Reset, fresh cluster has %+v", i, got, fh.Sys.Stats())
		}
		if n := len(h.Sys.Spaces()); n != 0 {
			t.Errorf("host %d has %d live address spaces after Reset", i, n)
		}
		if got := h.Genie.Stats(); got != (Stats{}) {
			t.Errorf("host %d Genie stats = %+v after Reset, want zero", i, got)
		}
		if got := h.NIC.Stats(); got != (netsim.Stats{}) {
			t.Errorf("host %d NIC stats = %+v after Reset, want zero", i, got)
		}
		if pool := h.NIC.Pool(); pool != nil {
			if pool.Free() != pool.Total() {
				t.Errorf("host %d overlay pool %d/%d free after Reset", i, pool.Free(), pool.Total())
			}
		}
	}
}

// TestClusterResetNoLeakage runs the seeded multi-host traffic script —
// plain and with per-host fault injectors armed — then Resets and
// requires (a) every observable to match a freshly built cluster and
// (b) the replayed script to produce a byte-identical digest on the
// recycled cluster and on a fresh one. Any state leaking through Reset
// (fabric egress timing, shard clocks or event heaps, frame free-list
// order, port numbering, pool occupancy, injector stream positions)
// breaks one of the two.
func TestClusterResetNoLeakage(t *testing.T) {
	const hosts = 8
	base := ClusterConfig{
		TestbedConfig: TestbedConfig{Plane: mem.Symbolic, FramesPerHost: 256},
		Topo:          topo.Ring(hosts),
		Workers:       2,
	}
	faulty := base
	// Duplicate/reorder/corrupt only: the plain windowed channels of the
	// traffic script have no retransmit layer, so an unrecovered Drop
	// would strand credits.
	faulty.Faults.Seed = 12345
	faulty.Faults.Duplicate = 0.15
	faulty.Faults.Reorder = 0.2
	faulty.Faults.Corrupt = 0.1

	incast := base
	incast.Topo = topo.Incast(hosts)
	incastFaulty := faulty
	incastFaulty.Topo = topo.Incast(hosts)

	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
	}{
		{"ring", base},
		{"ring-faultarmed", faulty},
		{"incast", incast},
		{"incast-faultarmed", incastFaulty},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 7
			first := clusterTrafficOn(t, c, tc.cfg, seed)

			if err := c.Reset(); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			checkClusterPristine(t, c, fresh)

			if got := clusterTrafficOn(t, c, tc.cfg, seed); got != first {
				t.Error("recycled cluster digest differs from its own first run")
			}
			if got := clusterTrafficOn(t, fresh, tc.cfg, seed); got != first {
				t.Error("fresh cluster digest differs from the recycled cluster's run")
			}

			// A second Reset after the replay must still come back pristine.
			if err := c.Reset(); err != nil {
				t.Fatalf("second Reset: %v", err)
			}
			ref, err := NewCluster(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkClusterPristine(t, c, ref)
		})
	}
}
