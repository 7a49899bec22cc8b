package experiments

import (
	"runtime/debug"
	"testing"

	"repro/internal/mem"
)

// poisonWirePool pre-fills every wire-pool class with buffers of 0xA5,
// so every wire buffer the stack takes from the pool starts with stale
// contents that are not its own.
func poisonWirePool() {
	const perClass = 8
	var held [][]byte
	for size := 64; size <= 1<<17; size *= 2 {
		for i := 0; i < perClass; i++ {
			b := mem.GetWire(size)
			for j := range b {
				b[j] = 0xA5
			}
			held = append(held, b)
		}
	}
	for _, b := range held {
		mem.PutWire(b)
	}
}

// TestPoisonedWirePoolDigests shows a recycled wire buffer's old
// contents never reach a result: with every pool class pre-filled with
// 0xA5 buffers, the storage sweep (sendfile cache reads), the incast
// cluster and the bytes-plane ring still reproduce their committed
// digests. The collector is off while a run holds the poisoned pool, so
// sync.Pool keeps the poisoned buffers until the stack draws them.
func TestPoisonedWirePoolDigests(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	poisonWirePool()
	rep, err := RunStorage(StorageConfig{Workers: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Runs[0].Digest, storageDigest; got != want {
		t.Errorf("storage digest %s with a poisoned wire pool, want the committed %s", got, want)
	}

	for _, c := range []struct {
		name string
		run  func(ClusterBenchConfig) (*ClusterReport, error)
		cfg  ClusterBenchConfig
		want string
	}{
		{"incast", RunIncast, ClusterBenchConfig{Hosts: 64, Rounds: 4, MsgBytes: 8192, Workers: []int{1}}, "a582e66d78d99945"},
		{"ring", RunRing, ClusterBenchConfig{Rounds: 16, Workers: []int{1}}, "935f4068a75bc3d0"},
	} {
		poisonWirePool()
		rep, err := c.run(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Runs[0].Digest; got != c.want {
			t.Errorf("%s digest %s with a poisoned wire pool, want the committed %s", c.name, got, c.want)
		}
	}
}
