package genie_test

import (
	"bytes"
	"testing"

	"repro/genie"
)

// TestClusterFacadeRing exercises the public N-host API end to end: a
// four-host ring exchanging halos both directions for two rounds.
func TestClusterFacadeRing(t *testing.T) {
	const hosts = 4
	c, err := genie.NewCluster(genie.RingTopology(hosts), 2)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*genie.Process, hosts)
	for i := range procs {
		procs[i] = c.Host(i).NewProcess()
	}
	type link struct{ a, b *genie.Endpoint }
	var links []link
	for i := 0; i < hosts; i++ {
		ea, eb, err := c.Connect(procs[i], procs[(i+1)%hosts], genie.EmulatedCopy, 4096, 2)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, link{ea, eb})
	}
	for round := 0; round < 2; round++ {
		for i, l := range links {
			fwd := bytes.Repeat([]byte{byte(10*round + i)}, 1500)
			rev := bytes.Repeat([]byte{byte(10*round + i + 100)}, 900)
			if err := l.a.Send(fwd); err != nil {
				t.Fatal(err)
			}
			if err := l.b.Send(rev); err != nil {
				t.Fatal(err)
			}
		}
		c.Run()
		for i, l := range links {
			m, ok := l.b.Recv()
			if !ok || len(m.Data()) != 1500 || m.Data()[0] != byte(10*round+i) {
				t.Fatalf("round %d link %d forward halo wrong: ok=%v", round, i, ok)
			}
			if err := m.Release(); err != nil {
				t.Fatal(err)
			}
			m, ok = l.a.Recv()
			if !ok || len(m.Data()) != 900 || m.Data()[0] != byte(10*round+i+100) {
				t.Fatalf("round %d link %d reverse halo wrong: ok=%v", round, i, ok)
			}
			if err := m.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Now() <= 0 {
		t.Fatal("cluster clock did not advance")
	}
}

// TestClusterFacadeOptions checks that per-host options flow through
// and that bad shapes are refused.
func TestClusterFacadeOptions(t *testing.T) {
	// written reports whether host 1 of a 3-host ring with the given
	// memory size takes a 160-page application write.
	written := func(frames int) bool {
		c, err := genie.NewCluster(genie.RingTopology(3), 1, genie.WithMemory(frames))
		if err != nil {
			t.Fatal(err)
		}
		p := c.Host(1).NewProcess()
		va, err := p.Brk(160 * 4096)
		if err != nil {
			t.Fatal(err)
		}
		return p.Write(va, make([]byte, 160*4096)) == nil
	}
	if written(128) || !written(1024) {
		t.Fatal("WithMemory did not bound a cluster host's physical memory")
	}
	if _, err := genie.NewCluster(genie.Topology{Hosts: 0}, 1); err == nil {
		t.Fatal("empty topology accepted")
	}
	c, err := genie.NewCluster(genie.RingTopology(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	p0 := c.Host(0).NewProcess()
	p2 := c.Host(2).NewProcess()
	if _, _, err := c.Connect(p0, p2, genie.Copy, 4096, 1); err == nil {
		t.Fatal("non-adjacent connect accepted (a 4-host ring has no 0-2 pair)")
	}
}
