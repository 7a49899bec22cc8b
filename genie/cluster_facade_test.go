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
	if c.Size() != hosts || c.Workers() != 2 {
		t.Fatalf("size=%d workers=%d", c.Size(), c.Workers())
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
	if c.PageSize() <= 0 {
		t.Fatal("page size not exposed")
	}
}

// TestClusterFacadeOptions checks per-host options flow through and the
// tracer rejection.
func TestClusterFacadeOptions(t *testing.T) {
	c, err := genie.NewCluster(genie.IncastTopology(3), 1,
		genie.WithPlatform(genie.AlphaStation255),
		genie.WithMemory(128))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PageSize(); got != genie.AlphaStation255.PageSize {
		t.Fatalf("page size = %d, want Alpha's %d", got, genie.AlphaStation255.PageSize)
	}
	if free := c.Host(1).FreeFrames(); free <= 0 || free > 128 {
		t.Fatalf("host free frames = %d with 128 configured", free)
	}
	ring := &traceRing{}
	if _, err := genie.NewCluster(genie.RingTopology(2), 1, genie.WithTracer(ring)); err == nil {
		t.Fatal("WithTracer accepted on a cluster")
	}
	if _, err := genie.NewCluster(genie.Topology{Hosts: 0}, 1); err == nil {
		t.Fatal("empty topology accepted")
	}
	p0 := c.Host(1).NewProcess()
	p2 := c.Host(2).NewProcess()
	if _, _, err := c.Connect(p0, p2, genie.Copy, 4096, 1); err == nil {
		t.Fatal("non-adjacent connect accepted (incast spokes are not connected)")
	}
}

// traceRing is a throwaway Sink for the rejection test.
type traceRing struct{}

func (r *traceRing) Emit(genie.Event) {}
