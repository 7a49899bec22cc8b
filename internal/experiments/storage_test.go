package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// storageDigest is the default storage sweep's committed digest, the
// one the storage tests of this package check against.
const storageDigest = "4234ccce87e5a8f3"

// The default sweep reproduces its committed digest at 1 and 4 point
// workers, and the 4-worker run simulates every point again instead of
// replaying the first run: every run takes one rig per point. Fresh rigs
// (recycling off) reproduce the digest too.
func TestRunStorageDeterministic(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(StorageConfig{Workers: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic || len(rep.Runs) != 2 {
		t.Fatalf("storage sweep not deterministic: %+v", rep.Runs)
	}
	for _, r := range rep.Runs {
		if r.Digest != storageDigest {
			t.Errorf("workers=%d digest %s, want the committed %s", r.Workers, r.Digest, storageDigest)
		}
	}
	points := rep.Runs[0].Records
	if got := rep.Perf.StorageRigsBuilt + rep.Perf.StorageRigsRecycled; points == 0 || got != 2*points {
		t.Errorf("rig gets %d, want %d (every point simulated in both runs)", got, 2*points)
	}

	withPerfRegime(t, true, false, 0, func() {
		fresh, err := RunStorage(StorageConfig{Workers: []int{4}})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Runs[0].Digest != storageDigest {
			t.Errorf("fresh-rig digest %s, want the committed %s", fresh.Runs[0].Digest, storageDigest)
		}
	})
}

// The storage sweep has no memo of its own, so switching the process-wide
// memo off (the sweep subcommand's -nomemo regime) changes nothing: both
// passes reproduce the committed digest and simulate every point.
func TestRunStorageMemoOff(t *testing.T) {
	withPerfRegime(t, false, true, 0, func() {
		rep, err := RunStorage(StorageConfig{Workers: []int{1, 4}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Deterministic || len(rep.Runs) != 2 {
			t.Fatalf("memo-off storage sweep not deterministic: %+v", rep.Runs)
		}
		for _, r := range rep.Runs {
			if r.Digest != storageDigest {
				t.Errorf("memo-off workers=%d digest %s, want the committed %s", r.Workers, r.Digest, storageDigest)
			}
		}
		points := rep.Runs[0].Records
		if got := rep.Perf.StorageRigsBuilt + rep.Perf.StorageRigsRecycled; points == 0 || got != 2*points {
			t.Errorf("memo-off rig gets %d, want %d", got, 2*points)
		}
	})
}

// The report locates a finite copy-vs-move crossover on the read path
// for every cache configuration, strictly inside the swept sizes.
func TestRunStorageCrossover(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(StorageConfig{
		Semantics:  []core.Semantics{core.Copy, core.EmulatedMove},
		Sizes:      []int{512, 4096, 16384, 61440},
		CachePages: []int{64},
		Workers:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Crossovers) == 0 {
		t.Fatal("no crossovers reported")
	}
	for _, x := range rep.Crossovers {
		if x.Bytes == 0 {
			t.Fatalf("no finite crossover for cp=%d dt=%d", x.CachePages, x.DirtyThreshold)
		}
		if x.Bytes <= 512 || x.Bytes > 61440 {
			t.Fatalf("crossover %d outside swept interior", x.Bytes)
		}
	}
}

// Cache pressure shows up in the sweep: the small cache's hit ratio on
// the copy path is below the big cache's, and evictions appear.
func TestRunStorageCachePressure(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(StorageConfig{
		Semantics:  []core.Semantics{core.Copy},
		Sizes:      []int{16384},
		CachePages: []int{8, 64},
		Workers:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var small, big *StoragePoint
	for i := range rep.Points {
		switch rep.Points[i].CachePages {
		case 8:
			small = &rep.Points[i]
		case 64:
			big = &rep.Points[i]
		}
	}
	if small == nil || big == nil {
		t.Fatal("missing sweep points")
	}
	if small.HitRatio >= big.HitRatio {
		t.Fatalf("small cache hit ratio %v not below big cache %v",
			small.HitRatio, big.HitRatio)
	}
	if small.Evictions == 0 {
		t.Fatal("pressured cache never evicted")
	}
	if big.Evictions != 0 {
		t.Fatalf("unpressured cache evicted %d times", big.Evictions)
	}
}

// The disk model sets device time only: a slower per-byte device
// stretches read latency and leaves the charged CPU unchanged.
func TestRunStorageDiskModel(t *testing.T) {
	run := func(perByteUS float64) StoragePoint {
		t.Helper()
		rep, err := RunStorage(StorageConfig{
			Semantics:  []core.Semantics{core.Copy},
			Sizes:      []int{8192},
			CachePages: []int{16},
			Disk:       blockdev.Model{SeekUS: 100, FixedUS: 10, PerByteUS: perByteUS},
			Workers:    []int{1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Points[0]
	}
	fast, slow := run(0.001), run(0.1)
	if slow.ReadLatency <= fast.ReadLatency {
		t.Errorf("slow disk read latency %v not above fast disk %v", slow.ReadLatency, fast.ReadLatency)
	}
	if slow.ReadCPU != fast.ReadCPU {
		t.Errorf("device speed leaked into charged CPU: %v vs %v", slow.ReadCPU, fast.ReadCPU)
	}
}

// The dirty-threshold axis turns writes into bursts.
func TestRunStorageWritebackBursts(t *testing.T) {
	ResetPerf()
	rep, err := RunStorage(StorageConfig{
		Semantics:       []core.Semantics{core.Copy},
		Sizes:           []int{16384},
		CachePages:      []int{64},
		DirtyThresholds: []int{0, 4},
		Workers:         []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lazy, eager *StoragePoint
	for i := range rep.Points {
		switch rep.Points[i].DirtyThreshold {
		case 0:
			lazy = &rep.Points[i]
		case 4:
			eager = &rep.Points[i]
		}
	}
	if lazy == nil || eager == nil {
		t.Fatal("missing sweep points")
	}
	if lazy.Bursts != 0 {
		t.Fatalf("threshold-0 point burst %d times", lazy.Bursts)
	}
	if eager.Bursts == 0 {
		t.Fatal("threshold-4 point never burst")
	}
	if eager.Writebacks == 0 {
		t.Fatal("threshold-4 point never wrote back")
	}
}

// A failing grid point names itself: an I/O size past the end of the
// device fails with the point's coordinates, not just the device error.
func TestRunStorageErrorNamesPoint(t *testing.T) {
	_, err := RunStorage(StorageConfig{
		Semantics:       []core.Semantics{core.Copy},
		Sizes:           []int{10000000},
		CachePages:      []int{8},
		DirtyThresholds: []int{0},
		Workers:         []int{1},
	})
	if err == nil {
		t.Fatal("oversized point succeeded")
	}
	for _, want := range []string{"copy", "size=10000000", "cache=8pg", "dirty=0", "readahead=0", "blockdev:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// The sweep's read-back oracle accepts the bytes it expects and rejects
// one flipped byte, naming it.
func TestCheckReadBackRejectsFlippedByte(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := tb.A.Genie.NewProcess()
	want := storageImage(3, 5000)
	va, err := p.Brk(len(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(va, want); err != nil {
		t.Fatal(err)
	}
	if err := checkReadBack(p, va, want); err != nil {
		t.Fatalf("intact buffer rejected: %v", err)
	}
	if err := p.Write(va+4321, []byte{want[4321] ^ 0x40}); err != nil {
		t.Fatal(err)
	}
	err = checkReadBack(p, va, want)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte 4321: got %d want %d", want[4321]^0x40, want[4321])) {
		t.Fatalf("flipped byte 4321: err %v", err)
	}
}

// The sweep's media oracle checks every block after Sync against a
// shadow image of the point's writes: with one shadow byte flipped, the
// point fails with an error that names it and the block.
func TestRunStorageMediaCheckNamesBlock(t *testing.T) {
	cfg := StorageConfig{
		Semantics:       []core.Semantics{core.EmulatedCopy},
		Sizes:           []int{16384},
		CachePages:      []int{8},
		DirtyThresholds: []int{4},
		Workers:         []int{1},
	}
	if _, err := RunStorage(cfg); err != nil {
		t.Fatalf("intact point: %v", err)
	}
	// Block 18 is the write leg's third write (blocks 16-19 at 4 pages a write).
	testHookStorageShadow = func(shadow []byte) { shadow[18*4096+77] ^= 0x10 }
	t.Cleanup(func() { testHookStorageShadow = nil })
	_, err := RunStorage(cfg)
	if err == nil {
		t.Fatal("point with a flipped shadow byte passed the media check")
	}
	for _, want := range []string{"emulated copy", "size=16384", "cache=8pg", "dirty=4", "media block 18 byte 77"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
