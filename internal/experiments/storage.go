package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/vm"
)

// The storage experiment: sweep the buffering-semantics taxonomy over
// the simulated storage data path (block device + page cache, PR 10)
// instead of the network path. Each grid point fixes (semantics, I/O
// size, cache capacity, dirty threshold), runs a deterministic
// read/re-read/write/sendfile scenario on a single-host storage stack,
// and reports per-op CPU and latency next to the cache's hit ratio and
// writeback-burst accounting. The whole sweep runs under the same
// determinism oracle as the network experiments: points fan across
// worker goroutines and the canonical-order digest must be bit-identical
// at any worker count.

// StorageConfig parameterizes the sweep grid and the verification run.
type StorageConfig struct {
	// Semantics lists the buffering semantics to sweep; empty → all 8.
	Semantics []core.Semantics
	// Sizes lists the per-op I/O lengths in bytes; empty → {512, 4096,
	// 16384, 61440}. Sizes above netsim.MaxFrame skip the sendfile leg.
	Sizes []int
	// CachePages lists page-cache capacities to sweep; empty → {8, 64}.
	CachePages []int
	// DirtyThresholds lists dirty-page writeback thresholds; empty →
	// {0, 4} (0 = flush only on Sync).
	DirtyThresholds []int
	// ReadAhead is the page-cache read-ahead depth for every point.
	ReadAhead int
	// Disk overrides the device cost model; zero → blockdev defaults.
	Disk blockdev.Model
	// Workers lists the point-fan-out worker counts to compare; empty →
	// 1 and 4. The first run is the baseline; every later run simulates
	// the grid again and must reproduce its digest bit for bit.
	Workers []int
}

// StoragePoint is the measured outcome of one grid point.
type StoragePoint struct {
	Sem            string  `json:"sem"`
	Size           int     `json:"size"`
	CachePages     int     `json:"cache_pages"`
	DirtyThreshold int     `json:"dirty_threshold"`
	ReadCPU        float64 `json:"read_cpu_us"`      // mean charged CPU per read op
	ReadLatency    float64 `json:"read_latency_us"`  // mean issue-to-complete per read op
	WriteCPU       float64 `json:"write_cpu_us"`     // mean charged CPU per write op
	WriteLatency   float64 `json:"write_latency_us"` // mean issue-to-complete per write op
	SendfileUS     float64 `json:"sendfile_us,omitempty"`
	HitRatio       float64 `json:"hit_ratio"`
	Writebacks     uint64  `json:"writebacks"`
	Bursts         uint64  `json:"bursts"`
	Evictions      uint64  `json:"evictions"`
	Donations      uint64  `json:"donations,omitempty"`
	DirectBlocks   uint64  `json:"direct_blocks,omitempty"`
	DeviceSeeks    uint64  `json:"device_seeks"`
	DeviceBusyUS   float64 `json:"device_busy_us"`
}

// StorageCrossover is the located copy-vs-move break-even on the read
// path for one cache configuration: the smallest swept size at which a
// move-family read charges less CPU than a copy read (Table 7's
// structure transplanted to the storage path). Bytes is 0 when the
// sweep never crosses.
type StorageCrossover struct {
	CachePages     int `json:"cache_pages"`
	DirtyThreshold int `json:"dirty_threshold"`
	Bytes          int `json:"bytes"`
}

// StorageReport is the experiment outcome.
type StorageReport struct {
	Scenario   string             `json:"scenario"`
	Points     []StoragePoint     `json:"points"`
	Crossovers []StorageCrossover `json:"crossovers"`
	Verification
	// Perf counts how the sweep's runs got their rigs: one built for
	// each disk configuration a point worker meets, and Reset for every
	// later point of it.
	Perf par.RecycleStats `json:"perf"`
}

// storageKey is one storage grid point.
type storageKey struct {
	sem            core.Semantics
	size           int
	cachePages     int
	dirtyThreshold int
	readAhead      int
	disk           blockdev.Model
}

// storageRig pairs a testbed with its storage stack for reuse: the
// stack's kernel object is created before any process, so a Reset +
// Reacquire rig replays a fresh one bit for bit.
type storageRig struct {
	tb *core.Testbed
	st *core.Storage
}

// rigSlot is one point worker's rig, keyed by disk configuration (the
// testbed configuration is fixed: the stock single-pair bed).
type rigSlot = par.Slot[core.DiskConfig, *storageRig]

// testHookStorageRig, when a test sets it, sees each rig the sweep
// builds.
var testHookStorageRig func(*storageRig)

func newStorageRig(disk core.DiskConfig) (*storageRig, error) {
	tb, err := core.NewTestbed(core.TestbedConfig{})
	if err != nil {
		return nil, err
	}
	st, err := core.NewStorage(tb.A, disk)
	if err != nil {
		return nil, err
	}
	rig := &storageRig{tb: tb, st: st}
	if testHookStorageRig != nil {
		testHookStorageRig(rig)
	}
	return rig, nil
}

// Reset returns the rig to its post-construction state.
func (r *storageRig) Reset() error {
	if err := r.tb.Reset(); err != nil {
		return err
	}
	r.st.Reacquire()
	return nil
}

// Drop ends the rig's life. Its host keeps its pages, which the device
// may share, so the rig only lets go of its testbed and stack: the
// collector takes them, and a dropped rig used again fails at once.
func (r *storageRig) Drop() { r.tb, r.st = nil, nil }

// storageImage returns the deterministic content of file block b.
func storageImage(b, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(b*131 + i*29 + 17)
	}
	return p
}

// storageOps is the per-point op count for each scenario leg.
const storageOps = 4

// checkReadBack is the sweep's read-back oracle: the len(want) bytes at
// va in p must equal want. A mismatch names the first differing byte.
// The check does not feed the digest.
func checkReadBack(p *core.Process, va vm.Addr, want []byte) error {
	got := make([]byte, len(want))
	if err := p.Read(va, got); err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for got[i] == want[i] {
		i++
	}
	return fmt.Errorf("byte %d: got %d want %d", i, got[i], want[i])
}

// checkMedia is the sweep's media oracle: after Sync, every block of
// dev must hold the bytes of shadow, the file image with the sweep's
// writes applied. A mismatch names the block and its first differing
// byte. The check does not feed the digest.
func checkMedia(dev *blockdev.Device, shadow []byte) error {
	bs := dev.BlockSize()
	for b := 0; b*bs < len(shadow); b++ {
		got, want := dev.Peek(b).Resolve(), shadow[b*bs:(b+1)*bs]
		if bytes.Equal(got, want) {
			continue
		}
		i := 0
		for got[i] == want[i] {
			i++
		}
		return fmt.Errorf("media block %d byte %d: got %d want %d", b, i, got[i], want[i])
	}
	return nil
}

// testHookStorageShadow, when a test sets it, sees each point's shadow
// image before the media check, so the test can corrupt it.
var testHookStorageShadow func(shadow []byte)

// diskConfig returns the storage stack configuration of point k.
func (k storageKey) diskConfig() core.DiskConfig {
	return core.DiskConfig{
		Disk:           k.disk,
		CachePages:     k.cachePages,
		ReadAhead:      k.readAhead,
		DirtyThreshold: k.dirtyThreshold,
	}
}

// runStoragePoint simulates one grid point on the rig slot holds for
// the point's disk configuration, Reset, or on a new one; a Reset rig
// simulates bit-identically to a fresh one. Any error names the point.
// A failed point's rig is in an unknown state and is dropped.
func runStoragePoint(slot *rigSlot, k storageKey) (StoragePoint, error) {
	disk := k.diskConfig()
	rig, err := slot.Get(disk, func() (*storageRig, error) { return newStorageRig(disk) })
	var pt StoragePoint
	if err == nil {
		pt, err = simulateStoragePoint(rig, k)
	}
	if err != nil {
		slot.Drop()
		return StoragePoint{}, fmt.Errorf("storage: %s size=%d cache=%dpg dirty=%d readahead=%d: %w",
			k.sem, k.size, k.cachePages, k.dirtyThreshold, k.readAhead, err)
	}
	return pt, nil
}

// simulateStoragePoint runs the point's read, write and sendfile legs on
// rig and checks the stack's conservation invariants.
func simulateStoragePoint(rig *storageRig, k storageKey) (StoragePoint, error) {
	tb, s := rig.tb, rig.st
	bs := s.Device().BlockSize()
	span := (k.size + bs - 1) / bs
	fileBlocks := 2 * storageOps * span
	image := make([]byte, 0, fileBlocks*bs) // the file as loaded, for the read-back oracle
	for b := 0; b < fileBlocks; b++ {
		image = append(image, storageImage(b, bs)...)
		if err := s.Device().Load(b, mem.BufBytes(image[b*bs:(b+1)*bs])); err != nil {
			return StoragePoint{}, err
		}
	}
	shadow := bytes.Clone(image) // the file with the write leg applied, for the media oracle
	// fileAt returns the k.size file bytes from block b on.
	fileAt := func(b int) []byte { return image[b*bs : b*bs+k.size] }
	p := tb.A.Genie.NewProcess()

	pt := StoragePoint{
		Sem:            k.sem.String(),
		Size:           k.size,
		CachePages:     k.cachePages,
		DirtyThreshold: k.dirtyThreshold,
	}
	runOp := func(op *core.FileOp, err error) (cpu, lat float64, _ error) {
		if err != nil {
			return 0, 0, err
		}
		tb.Run()
		if !op.Done || op.Err != nil {
			return 0, 0, fmt.Errorf("storage op incomplete: %v", op.Err)
		}
		return op.CPU, op.CompletedAt.Sub(op.StartedAt).Micros(), nil
	}

	// Read leg: a sequential cold pass over the file, then a second
	// pass over the same range — hits when the cache holds it, misses
	// (and evictions) when it does not. That interaction is the point
	// of the cache-capacity axis.
	brkVA, err := p.Brk(span * bs)
	if err != nil {
		return StoragePoint{}, err
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < storageOps; i++ {
			va := brkVA
			if k.sem.SystemAllocated() {
				va = 0
			}
			op, err := s.FileRead(p, k.sem, i*span, k.size, va)
			cpu, lat, err := runOp(op, err)
			if err == nil {
				err = checkReadBack(p, op.Addr, fileAt(i*span))
			}
			if err != nil {
				return StoragePoint{}, fmt.Errorf("read %v op %d pass %d: %w", k.sem, i, pass, err)
			}
			pt.ReadCPU += cpu
			pt.ReadLatency += lat
		}
	}
	pt.ReadCPU /= 2 * storageOps
	pt.ReadLatency /= 2 * storageOps

	// Write leg: dirty the second half of the file. With a threshold
	// the cache flushes in bursts mid-leg; without one, Sync drains.
	wdata := storageImage(97, k.size)
	for i := 0; i < storageOps; i++ {
		va := brkVA
		if k.sem.SystemAllocated() {
			r, err := p.AllocIOBuffer(k.size)
			if err != nil {
				return StoragePoint{}, err
			}
			va = r.Start()
		}
		if err := p.Write(va, wdata); err != nil {
			return StoragePoint{}, err
		}
		cpu, lat, err := runOp(s.FileWrite(p, k.sem, (storageOps+i)*span, k.size, va))
		if err != nil {
			return StoragePoint{}, fmt.Errorf("write %v: %w", k.sem, err)
		}
		copy(shadow[(storageOps+i)*span*bs:], wdata)
		pt.WriteCPU += cpu
		pt.WriteLatency += lat
	}
	pt.WriteCPU /= storageOps
	pt.WriteLatency /= storageOps

	// Sendfile leg: the disk→net pipeline, when the op fits one frame.
	if k.size <= netsim.MaxFrame {
		pB := tb.B.Genie.NewProcess()
		for i := 0; i < storageOps; i++ {
			var vaB vm.Addr
			if !k.sem.SystemAllocated() {
				a, err := pB.Brk(k.size)
				if err != nil {
					return StoragePoint{}, err
				}
				vaB = a
			}
			in, err := pB.Input(7, k.sem, vaB, k.size)
			if err != nil {
				return StoragePoint{}, err
			}
			_, lat, err := runOp(s.Sendfile(7, i*span, k.size))
			if err != nil {
				return StoragePoint{}, fmt.Errorf("sendfile %v: %w", k.sem, err)
			}
			if !in.Done || in.Err != nil {
				return StoragePoint{}, fmt.Errorf("sendfile %v: input incomplete: %v", k.sem, in.Err)
			}
			if err := checkReadBack(pB, in.Addr, fileAt(i*span)); err != nil {
				return StoragePoint{}, fmt.Errorf("sendfile %v op %d: %w", k.sem, i, err)
			}
			pt.SendfileUS += lat
		}
		pt.SendfileUS /= storageOps
	}

	s.Sync()
	if testHookStorageShadow != nil {
		testHookStorageShadow(shadow)
	}
	if err := checkMedia(s.Device(), shadow); err != nil {
		return StoragePoint{}, err
	}
	if err := s.CheckConservation(); err != nil {
		return StoragePoint{}, err
	}
	if err := tb.A.Phys.CheckInvariants(); err != nil {
		return StoragePoint{}, err
	}

	ct := s.Cache().Counters()
	if probes := ct.Hits + ct.Misses; probes > 0 {
		pt.HitRatio = float64(ct.Hits) / float64(probes)
	}
	pt.Writebacks = ct.Writebacks
	pt.Bursts = ct.Bursts
	pt.Evictions = ct.Evictions
	st := s.Stats()
	pt.Donations = st.Donations
	pt.DirectBlocks = st.DirectBlocks
	dv := s.Device().Stats()
	pt.DeviceSeeks = dv.Seeks
	pt.DeviceBusyUS = dv.BusyUS
	return pt, nil
}

func (cfg StorageConfig) grid() []storageKey {
	sems := cfg.Semantics
	if len(sems) == 0 {
		sems = core.AllSemantics()
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = []int{512, 4096, 16384, 61440}
	}
	pages := cfg.CachePages
	if len(pages) == 0 {
		pages = []int{8, 64}
	}
	dirty := cfg.DirtyThresholds
	if len(dirty) == 0 {
		dirty = []int{0, 4}
	}
	var keys []storageKey
	for _, cp := range pages {
		for _, dt := range dirty {
			for _, sem := range sems {
				for _, size := range sizes {
					keys = append(keys, storageKey{
						sem: sem, size: size, cachePages: cp,
						dirtyThreshold: dt, readAhead: cfg.ReadAhead,
						disk: cfg.Disk,
					})
				}
			}
		}
	}
	return keys
}

// runStorageGrid measures every point at the given worker count and
// folds the canonical-order digest. The grid is in disk-configuration
// order, so each point worker's rig serves a run of consecutive points;
// the run holds at most one rig per worker, and none once it returns.
// It also returns how the run got its rigs.
func runStorageGrid(keys []storageKey, pw int) ([]StoragePoint, WorkerRun, par.RecycleStats, error) {
	start := time.Now()
	points := make([]StoragePoint, len(keys))
	rigs, err := par.EachSlot(len(keys), pw, func(slot *rigSlot, i int) error {
		var err error
		points[i], err = runStoragePoint(slot, keys[i])
		return err
	})
	if err != nil {
		return nil, WorkerRun{}, rigs, err
	}
	d := digest.New()
	for _, pt := range points {
		d.Addf("sem=%s size=%d cp=%d dt=%d rcpu=%x rlat=%x wcpu=%x wlat=%x sf=%x hr=%x wb=%d bursts=%d evict=%d don=%d direct=%d seeks=%d busy=%x\n",
			pt.Sem, pt.Size, pt.CachePages, pt.DirtyThreshold,
			pt.ReadCPU, pt.ReadLatency, pt.WriteCPU, pt.WriteLatency,
			pt.SendfileUS, pt.HitRatio, pt.Writebacks, pt.Bursts,
			pt.Evictions, pt.Donations, pt.DirectBlocks,
			pt.DeviceSeeks, pt.DeviceBusyUS)
		d.Record()
	}
	return points, WorkerRun{Digest: d.Hex(), Records: d.Records(), ElapsedSec: time.Since(start).Seconds()}, rigs, nil
}

// storageCrossovers locates, for each cache configuration, the
// smallest swept size at which an EmulatedMove read charges less CPU
// than a Copy read — the storage-path analogue of Table 7's
// copy-vs-move break-even.
func storageCrossovers(points []StoragePoint) []StorageCrossover {
	type cfgKey struct{ cp, dt int }
	type pair struct{ copy, move float64 }
	bySize := map[cfgKey]map[int]*pair{}
	var order []cfgKey
	sizes := map[int]bool{}
	for _, pt := range points {
		if pt.Sem != core.Copy.String() && pt.Sem != core.EmulatedMove.String() {
			continue
		}
		ck := cfgKey{pt.CachePages, pt.DirtyThreshold}
		if bySize[ck] == nil {
			bySize[ck] = map[int]*pair{}
			order = append(order, ck)
		}
		pr := bySize[ck][pt.Size]
		if pr == nil {
			pr = &pair{}
			bySize[ck][pt.Size] = pr
		}
		if pt.Sem == core.Copy.String() {
			pr.copy = pt.ReadCPU
		} else {
			pr.move = pt.ReadCPU
		}
		sizes[pt.Size] = true
	}
	var sorted []int
	for s := range sizes {
		sorted = append(sorted, s)
	}
	slices.Sort(sorted)
	var out []StorageCrossover
	for _, ck := range order {
		x := StorageCrossover{CachePages: ck.cp, DirtyThreshold: ck.dt}
		for _, s := range sorted {
			if pr := bySize[ck][s]; pr != nil && pr.copy > 0 && pr.move > 0 && pr.move < pr.copy {
				x.Bytes = s
				break
			}
		}
		out = append(out, x)
	}
	return out
}

// RunStorage executes the storage sweep at every configured
// point-worker count. The first run is the reported baseline; every
// later run simulates every point again and must reproduce its digest
// bit for bit, or Deterministic flips to false.
func RunStorage(cfg StorageConfig) (*StorageReport, error) {
	keys := cfg.grid()
	rep := &StorageReport{Scenario: "storage"}
	var err error
	rep.Verification, err = verifyWorkers(cfg.Workers, func(w int) (WorkerRun, error) {
		points, run, rigs, err := runStorageGrid(keys, w)
		if rep.Points == nil {
			rep.Points = points
		}
		rep.Perf.Built += rigs.Built
		rep.Perf.Recycled += rigs.Recycled
		rep.Perf.ResetFailures += rigs.ResetFailures
		return run, err
	})
	if err != nil {
		return nil, err
	}
	rep.Crossovers = storageCrossovers(rep.Points)
	return rep, nil
}
