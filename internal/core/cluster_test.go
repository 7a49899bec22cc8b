package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/topo"
)

// TestClusterPairTransfer checks the smallest cluster — two hosts on a
// fabric — moves real data end to end with correct contents.
func TestClusterPairTransfer(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Topo: topo.Pair(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pa := c.Host(0).Genie.NewProcess()
	pb := c.Host(1).Genie.NewProcess()
	ea, eb, err := c.Connect(pa, pb, EmulatedCopy, 8192, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := ea.Send(payload); err != nil {
		t.Fatal(err)
	}
	c.Run()
	m, ok := eb.Recv()
	if !ok {
		t.Fatal("no message delivered")
	}
	if len(m.Data()) != len(payload) {
		t.Fatalf("delivered %d bytes, want %d", len(m.Data()), len(payload))
	}
	for i := range payload {
		if m.Data()[i] != payload[i] {
			t.Fatalf("payload mismatch at byte %d", i)
		}
	}
	if m.CompletedAt() <= 0 {
		t.Fatal("delivery at time zero")
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterConnectValidation pins the topology-enforcement errors.
func TestClusterConnectValidation(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Topo: topo.Ring(4), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p0 := c.Host(0).Genie.NewProcess()
	p0b := c.Host(0).Genie.NewProcess()
	p2 := c.Host(2).Genie.NewProcess()
	if _, _, err := c.Connect(p0, p2, Copy, 4096, 1); err == nil {
		t.Fatal("non-adjacent connect accepted (ring has no 0-2 pair)")
	}
	if _, _, err := c.Connect(p0, p0b, Copy, 4096, 1); err == nil {
		t.Fatal("same-host connect accepted")
	}
	tb, err := NewTestbed(TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	foreign := tb.A.Genie.NewProcess()
	if _, _, err := c.Connect(p0, foreign, Copy, 4096, 1); err == nil {
		t.Fatal("foreign process accepted")
	}
	if _, err := NewCluster(ClusterConfig{Topo: topo.Spec{Hosts: 2, Pairs: [][2]int{{0, 5}}}}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

// TestTestbedConfigValidation: a negative size or offset and an
// out-of-range fault rate are construction errors, for a testbed and
// for a cluster built from the same host configuration.
func TestTestbedConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  TestbedConfig
	}{
		{"memory", TestbedConfig{FramesPerHost: -1}},
		{"pool", TestbedConfig{PoolPages: -1}},
		{"device offset", TestbedConfig{OverlayOff: -1}},
		{"drop rate", TestbedConfig{Faults: faults.Spec{Seed: 1, Drop: 1.5}}},
	} {
		if _, err := NewTestbed(c.cfg); err == nil {
			t.Errorf("testbed accepted a bad %s", c.name)
		}
		if _, err := NewCluster(ClusterConfig{TestbedConfig: c.cfg, Topo: topo.Ring(3)}); err == nil {
			t.Errorf("cluster accepted a bad %s", c.name)
		}
	}
}

// clusterTraffic runs a seeded 16-host random-traffic script on a ring
// and returns a full determinism digest: every delivery (channel, port,
// length, completion time, payload checksum) in consumption order plus
// final per-host NIC and framework stats.
func clusterTraffic(t *testing.T, workers int, seed int64) string {
	t.Helper()
	const hosts = 16
	cfg := ClusterConfig{
		TestbedConfig: TestbedConfig{Plane: mem.Symbolic, FramesPerHost: 256},
		Topo:          topo.Ring(hosts),
		Workers:       workers,
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return clusterTrafficOn(t, c, cfg, seed)
}

// clusterTrafficOn runs the seeded traffic script on an existing
// cluster (fresh or Reset) and returns the determinism digest.
func clusterTrafficOn(t *testing.T, c *Cluster, cfg ClusterConfig, seed int64) string {
	t.Helper()
	hosts := cfg.Topo.Hosts
	procs := make([]*Process, hosts)
	for i := range procs {
		procs[i] = c.Host(i).Genie.NewProcess()
	}
	sems := []Semantics{Copy, EmulatedCopy, EmulatedMove, WeakMove}
	type pair struct{ a, b *Endpoint }
	var chans []pair
	for i, p := range cfg.Topo.Pairs {
		ea, eb, err := c.Connect(procs[p[0]], procs[p[1]], sems[i%len(sems)], 4096, 2)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, pair{ea, eb})
	}
	rng := rand.New(rand.NewSource(seed))
	var log strings.Builder
	for round := 0; round < 5; round++ {
		for ci, ch := range chans {
			for dir, e := range []*Endpoint{ch.a, ch.b} {
				if rng.Intn(3) == 0 {
					continue
				}
				size := 1 + rng.Intn(4096)
				payload := make([]byte, size)
				for j := range payload {
					payload[j] = byte(ci*31 + dir*17 + j + round)
				}
				if err := e.Send(payload); err != nil {
					t.Fatalf("round %d chan %d dir %d: %v", round, ci, dir, err)
				}
			}
		}
		c.Run()
		for ci, ch := range chans {
			for _, e := range []*Endpoint{ch.a, ch.b} {
				for {
					m, ok := e.Recv()
					if !ok {
						break
					}
					sum := 0
					for _, bb := range m.Data() {
						sum = (sum*31 + int(bb)) & 0xffffff
					}
					fmt.Fprintf(&log, "r%d c%d p%d len=%d at=%.6f sum=%06x\n",
						round, ci, e.Port(), len(m.Data()), m.CompletedAt(), sum)
					if err := m.Release(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	c.Run()
	for i := 0; i < hosts; i++ {
		fmt.Fprintf(&log, "host%d nic=%+v genie=%+v\n",
			i, c.Host(i).NIC.Stats(), c.Host(i).Genie.Stats())
	}
	fmt.Fprintf(&log, "final=%v\n", c.Now())
	return log.String()
}

// TestClusterTrafficDeterministicAcrossWorkers is the cross-shard
// determinism contract: the same seeded 16-host script produces a
// byte-identical digest — per-host stats, delivery order, payloads,
// timestamps — at every worker count. CI runs this under -race, which
// also audits the window barrier for unsynchronized sharing.
func TestClusterTrafficDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{3, 99} {
		serial := clusterTraffic(t, 1, seed)
		counts := []int{2, 4}
		if p := runtime.GOMAXPROCS(0); p > 1 && p != 2 && p != 4 {
			counts = append(counts, p)
		}
		for _, workers := range counts {
			if got := clusterTraffic(t, workers, seed); got != serial {
				t.Fatalf("seed %d: workers=%d digest differs from serial", seed, workers)
			}
		}
	}
}

// TestClusterFaultsDeterministicAcrossWorkers repeats the contract with
// per-host derived fault injectors armed: wire faults fire from
// host-local streams, so worker scheduling cannot perturb them.
func TestClusterFaultsDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		const hosts = 6
		cfg := ClusterConfig{
			TestbedConfig: TestbedConfig{Plane: mem.Symbolic, FramesPerHost: 256},
			Topo:          topo.Ring(hosts),
			Workers:       workers,
		}
		// Duplicate/reorder/corrupt only: a plain windowed channel has no
		// retransmit layer, so an unrecovered Drop would strand credits.
		cfg.Faults.Seed = 12345
		cfg.Faults.Duplicate = 0.15
		cfg.Faults.Reorder = 0.2
		cfg.Faults.Corrupt = 0.1
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]*Process, hosts)
		for i := range procs {
			procs[i] = c.Host(i).Genie.NewProcess()
		}
		var eps []*Endpoint
		for _, p := range cfg.Topo.Pairs {
			ea, eb, err := c.Connect(procs[p[0]], procs[p[1]], EmulatedCopy, 2048, 2)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, ea, eb)
		}
		payload := make([]byte, 1500)
		for round := 0; round < 4; round++ {
			for _, e := range eps {
				if err := e.Send(payload); err != nil {
					t.Fatal(err)
				}
			}
			c.Run()
			for _, e := range eps {
				for {
					m, ok := e.Recv()
					if !ok {
						break
					}
					if err := m.Release(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		var log strings.Builder
		for i := 0; i < hosts; i++ {
			fmt.Fprintf(&log, "host%d nic=%+v\n", i, c.Host(i).NIC.Stats())
		}
		return log.String()
	}
	serial := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); got != serial {
			t.Fatalf("workers=%d fault digest differs from serial", workers)
		}
	}
}
