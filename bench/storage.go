package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/mem"
	"repro/internal/vm"
)

// storage-read and storage-write: the storage data path on one rig, a
// testbed plus core.Storage on host A, on the bytes plane. One op is one
// file operation; one session starts with Testbed.Reset,
// Storage.Reacquire and Device.Load of the file image, so the page cache
// starts empty every session, and ends with Sync and the conservation
// audits. The benchmark keeps its own shadow image of the file and checks
// every read and sendfile payload against it, and after Sync checks the
// device media against it.
//
// storage-read reads a file that fits the cache: 80% FileRead and 20%
// Sendfile to host B, semantics uniform over all eight, so copy-out,
// page flips, donation and direct DMA all run against cache hits,
// read-ahead and consumed pages. storage-write writes a file four times
// the cache with a dirty threshold: 75% FileWrite and 25% FileRead, so
// dirty tracking, threshold bursts, dirty eviction and seeks run. Its
// reads leave out share and emulated share: those read the device
// directly, bypassing the cache, and the model does not flush dirty
// cache pages first, so they would return media older than the writes
// the cache still holds. storage-read covers them. Both run on one
// thread with no memo and the bytes plane, bypassing fan-out, the memo
// and the symbolic plane.

type storageSpec struct {
	fileBlocks   int // file image size in blocks
	ops          int // file ops per session
	pool         int // distinct sessions
	disk         core.DiskConfig
	writeFrac    float64 // share of ops that are FileWrite
	sendfileFrac float64 // share of ops that are Sendfile
	directReads  bool    // reads may use share and emulated share
}

var (
	storageReadDefault = storageSpec{
		fileBlocks: 96, ops: 256, pool: 160,
		disk:         core.DiskConfig{CachePages: 128, ReadAhead: 4},
		sendfileFrac: 0.2, directReads: true,
	}
	storageWriteDefault = storageSpec{
		fileBlocks: 512, ops: 256, pool: 160,
		disk:      core.DiskConfig{CachePages: 128, ReadAhead: 4, DirtyThreshold: 16},
		writeFrac: 0.75,
	}
)

// storageSizes are the op sizes: sub-page, one page, and multi-page up
// to the largest AAL5 datagram, so every op also fits one sendfile.
var storageSizes = []int{512, 4096, 16384, 61440}

const (
	storageFrames = 1024 // per host
	sendfilePort  = 7
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opSendfile
)

func (k opKind) String() string { return [...]string{"read", "write", "sendfile"}[k] }

// opSpans names each op kind's root span.
var opSpans = [...]string{"bench.read", "bench.write", "bench.sendfile"}

type fileOp struct {
	kind  opKind
	sem   core.Semantics
	block int
	size  int
	fill  int // write data offset into the pattern
}

type storageCounters struct {
	flips, donations, directBlocks                                    uint64
	hits, misses, readAheads, evictions, writebacks, bursts, consumed uint64
	seeks, blocksRead, blocksWritten                                  uint64
	busyUS                                                            float64
	allocs, failedAllocs, faults, tcowCopies, zeroFills               uint64
	txFrames, dropped, retried, events, tracedEvents                  uint64
	dirtyHWM, framesHWM                                               int
}

type storage struct {
	spec storageSpec
	tb   *core.Testbed
	st   *core.Storage
	bs   int

	image, shadow []byte
	pattern       []byte // write data source: op i writes pattern[fill:fill+size]
	readBack      []byte // payload read-back buffer
	pool          [][]fileOp

	lat          []float64
	bytes, simUS float64
	c            storageCounters
}

func newStorage(spec storageSpec) *storage { return &storage{spec: spec} }

func (w *storage) setup(seed uint64) error {
	tb, err := core.NewTestbed(core.TestbedConfig{FramesPerHost: storageFrames})
	if err != nil {
		return err
	}
	st, err := core.NewStorage(tb.A, w.spec.disk)
	if err != nil {
		return err
	}
	*w = storage{spec: w.spec, tb: tb, st: st, bs: st.Device().BlockSize()}

	rng := rand.New(rand.NewPCG(seed, 0))
	w.image = make([]byte, w.spec.fileBlocks*w.bs)
	for i := range w.image {
		w.image[i] = byte(rng.Uint32())
	}
	w.shadow = make([]byte, len(w.image))
	maxSize := storageSizes[len(storageSizes)-1]
	w.pattern = make([]byte, maxSize+256)
	for i := range w.pattern {
		w.pattern[i] = byte(i*31 + i/251)
	}
	w.readBack = make([]byte, maxSize)

	sems := core.AllSemantics()
	var readSems []core.Semantics
	for _, s := range sems {
		if w.spec.directReads || (s != core.Share && s != core.EmulatedShare) {
			readSems = append(readSems, s)
		}
	}
	w.pool = make([][]fileOp, w.spec.pool)
	for k := range w.pool {
		rng := rand.New(rand.NewPCG(seed, uint64(k)+1))
		ops := make([]fileOp, w.spec.ops)
		for j := range ops {
			op := fileOp{size: storageSizes[rng.IntN(len(storageSizes))], fill: rng.IntN(256)}
			switch u := rng.Float64(); {
			case u < w.spec.writeFrac:
				op.kind, op.sem = opWrite, sems[rng.IntN(len(sems))]
			case u < w.spec.writeFrac+w.spec.sendfileFrac:
				op.kind, op.sem = opSendfile, sems[rng.IntN(len(sems))]
			default:
				op.kind, op.sem = opRead, readSems[rng.IntN(len(readSems))]
			}
			span := (op.size + w.bs - 1) / w.bs
			op.block = rng.IntN(w.spec.fileBlocks - span + 1)
			ops[j] = op
		}
		w.pool[k] = ops
	}
	return nil
}

func (w *storage) poolSize() int { return w.spec.pool }

func (w *storage) session(k int, tr *tracer, p pass) sessionOut {
	ln := tr.lane(0)
	sid := ln.newID()
	ops := w.pool[k]
	out := sessionOut{ops: len(ops)}
	failAll := func(what string, err error) sessionOut {
		out.failed = len(ops)
		out.errs = append(out.errs, fmt.Sprintf("session %d: %s: %v", k, what, err))
		return out
	}

	t := ln.now()
	err := w.tb.Reset()
	ln.end("core.Testbed.Reset", t, 0, sid, 0)
	if err != nil {
		return failAll("reset", err)
	}
	t = ln.now()
	w.st.Reacquire()
	ln.end("core.Storage.Reacquire", t, 0, sid, 0)
	t = ln.now()
	for b := range w.spec.fileBlocks {
		if err := w.st.Device().Load(b, mem.BufBytes(w.image[b*w.bs:(b+1)*w.bs])); err != nil {
			return failAll("load", err)
		}
	}
	ln.end("blockdev.Device.Load", t, 0, sid, 0)
	copy(w.shadow, w.image)

	pA := w.tb.A.Genie.NewProcess()
	pB := w.tb.B.Genie.NewProcess()
	maxSize := storageSizes[len(storageSizes)-1]
	bufA, err := pA.Brk(maxSize)
	if err != nil {
		return failAll("brk", err)
	}
	bufB, err := pB.Brk(maxSize)
	if err != nil {
		return failAll("brk", err)
	}

	d := digest.New()
	for j, op := range ops {
		lat, cpu, err := w.do(op, pA, pB, bufA, bufB, ln, sid)
		if err != nil {
			// The rig is in an unknown state: abandon the session; the
			// next one resets it.
			out.failed = len(ops) - j
			out.errs = append(out.errs, fmt.Sprintf("session %d op %d %s %v %dB@%d: %v",
				k, j, op.kind, op.sem, op.size, op.block, err))
			out.digest = d.Hex()
			return out
		}
		d.Addf("%x %x\n", lat, cpu)
		if p == firstPass {
			w.lat = append(w.lat, lat)
			w.bytes += float64(op.size)
			w.simUS += lat
		}
	}

	t = ln.now()
	w.st.Sync()
	ln.end("core.Storage.Sync", t, 0, sid, 0)
	if err := w.audit(ln, sid); err != nil {
		return failAll("audit", err)
	}
	d.Addf("%+v %+v %+v\n", w.st.Stats(), w.st.Cache().Counters(), w.st.Device().Stats())
	out.digest = d.Hex()
	if p != warmUp {
		w.count()
	}
	return out
}

// do runs one file op to completion, verifies its payload against the
// shadow image, and returns its simulated latency and CPU (µs).
func (w *storage) do(op fileOp, pA, pB *core.Process, bufA, bufB vm.Addr, ln *lane, sid uint64) (lat, cpu float64, err error) {
	opID := ln.newID()
	t0 := ln.now()
	defer ln.end(opSpans[op.kind], t0, opID, sid, opID)
	off := op.block * w.bs

	switch op.kind {
	case opRead:
		va := bufA
		if op.sem.SystemAllocated() {
			va = 0
		}
		t := ln.now()
		fop, err := w.st.FileRead(pA, op.sem, op.block, op.size, va)
		ln.end("core.Storage.FileRead", t, 0, opID, opID)
		if err != nil {
			return 0, 0, err
		}
		if err := w.run(ln, opID, fop); err != nil {
			return 0, 0, err
		}
		if err := w.verify(ln, opID, pA, fop.Addr, w.shadow[off:off+op.size]); err != nil {
			return 0, 0, err
		}
		if fop.Region != nil {
			if err := pA.FreeIOBuffer(fop.Region); err != nil {
				return 0, 0, err
			}
		}
		return fop.CompletedAt.Sub(fop.StartedAt).Micros(), fop.CPU, nil

	case opWrite:
		data := w.pattern[op.fill : op.fill+op.size]
		va := bufA
		if op.sem.SystemAllocated() {
			r, err := pA.AllocIOBuffer(op.size)
			if err != nil {
				return 0, 0, err
			}
			va = r.Start()
		}
		t := ln.now()
		err := pA.Write(va, data)
		ln.end("core.Process.Write", t, 0, opID, opID)
		if err != nil {
			return 0, 0, err
		}
		t = ln.now()
		fop, err := w.st.FileWrite(pA, op.sem, op.block, op.size, va)
		ln.end("core.Storage.FileWrite", t, 0, opID, opID)
		if err != nil {
			return 0, 0, err
		}
		if err := w.run(ln, opID, fop); err != nil {
			return 0, 0, err
		}
		copy(w.shadow[off:], data)
		return fop.CompletedAt.Sub(fop.StartedAt).Micros(), fop.CPU, nil

	default: // opSendfile
		vaB := bufB
		if op.sem.SystemAllocated() {
			vaB = 0
		}
		t := ln.now()
		in, err := pB.Input(sendfilePort, op.sem, vaB, op.size)
		ln.end("core.Process.Input", t, 0, opID, opID)
		if err != nil {
			return 0, 0, err
		}
		t = ln.now()
		fop, err := w.st.Sendfile(sendfilePort, op.block, op.size)
		ln.end("core.Storage.Sendfile", t, 0, opID, opID)
		if err != nil {
			return 0, 0, err
		}
		if err := w.run(ln, opID, fop); err != nil {
			return 0, 0, err
		}
		if !in.Done || in.Err != nil || in.N != op.size {
			return 0, 0, fmt.Errorf("input incomplete: done %v, %d of %d bytes, err %v", in.Done, in.N, op.size, in.Err)
		}
		if err := w.verify(ln, opID, pB, in.Addr, w.shadow[off:off+op.size]); err != nil {
			return 0, 0, err
		}
		if in.Region != nil {
			if err := pB.FreeIOBuffer(in.Region); err != nil {
				return 0, 0, err
			}
		}
		return in.CompletedAt.Sub(fop.StartedAt).Micros(), fop.CPU + in.ReceiverCPU, nil
	}
}

// run drains the simulation and checks that the op completed.
func (w *storage) run(ln *lane, opID uint64, fop *core.FileOp) error {
	steps := w.tb.Eng.Steps()
	t := ln.now()
	w.tb.Run()
	ln.end("core.Testbed.Run", t, 0, opID, opID)
	if ln != nil {
		w.c.tracedEvents += w.tb.Eng.Steps() - steps
	}
	if !fop.Done || fop.Err != nil {
		return fmt.Errorf("op incomplete: done %v, err %v", fop.Done, fop.Err)
	}
	return nil
}

// verify reads the delivered payload back out of the process and
// compares it with the shadow image.
func (w *storage) verify(ln *lane, opID uint64, p *core.Process, va vm.Addr, want []byte) error {
	got := w.readBack[:len(want)]
	t := ln.now()
	err := p.Read(va, got)
	ln.end("core.Process.Read", t, 0, opID, opID)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		return fmt.Errorf("payload byte %d: got %#02x, shadow image has %#02x", i, got[i], want[i])
	}
	return nil
}

// audit runs the session-end checks: storage conservation, both hosts'
// physical-memory invariants, and the device media against the shadow
// image.
func (w *storage) audit(ln *lane, sid uint64) error {
	t := ln.now()
	err := w.st.CheckConservation()
	ln.end("core.Storage.CheckConservation", t, 0, sid, 0)
	if err != nil {
		return err
	}
	t = ln.now()
	for _, h := range []*core.Host{w.tb.A, w.tb.B} {
		if err := h.Phys.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: %w", h.Name, err)
		}
	}
	ln.end("mem.PhysMem.CheckInvariants", t, 0, sid, 0)
	for b := range w.spec.fileBlocks {
		if !bytes.Equal(w.st.Device().Peek(b).Resolve(), w.shadow[b*w.bs:(b+1)*w.bs]) {
			return fmt.Errorf("media block %d differs from the shadow image after sync", b)
		}
	}
	return nil
}

// count adds the session's layer counters; the testbed Reset at the
// next session start zeroes them.
func (w *storage) count() {
	c := &w.c
	ss := w.st.Stats()
	c.flips += ss.PageFlips
	c.donations += ss.Donations
	c.directBlocks += ss.DirectBlocks
	cc := w.st.Cache().Counters()
	c.hits += cc.Hits
	c.misses += cc.Misses
	c.readAheads += cc.ReadAheads
	c.evictions += cc.Evictions
	c.writebacks += cc.Writebacks
	c.bursts += cc.Bursts
	c.consumed += cc.Consumed
	c.dirtyHWM = max(c.dirtyHWM, w.st.Cache().DirtyHighWater())
	ds := w.st.Device().Stats()
	c.seeks += ds.Seeks
	c.blocksRead += ds.BlocksRead
	c.blocksWritten += ds.BlocksWritten
	c.busyUS += ds.BusyUS
	for _, h := range []*core.Host{w.tb.A, w.tb.B} {
		ms := h.Phys.Stats()
		c.allocs += ms.Allocs
		c.failedAllocs += ms.FailedAllocs
		c.framesHWM = max(c.framesHWM, h.Phys.HighWater())
		vs := h.Sys.Stats()
		c.faults += vs.Faults
		c.tcowCopies += vs.TCOWCopies
		c.zeroFills += vs.ZeroFills
		ns := h.NIC.Stats()
		c.txFrames += ns.TxFrames
		c.dropped += ns.Dropped
		c.retried += ns.Retried
	}
	c.events += w.tb.Eng.Steps()
}

func (w *storage) model() modelStats { return latencyModel(w.lat, w.bytes, w.simUS) }

func (w *storage) layers(m metricSet, ops int, tr *tracer) {
	c := &w.c
	n := float64(ops)
	per := func(v uint64) float64 { return ratio(float64(v), n) }
	m["core.page_flips_per_op"] = per(c.flips)
	m["core.donations_per_op"] = per(c.donations)
	m["core.direct_blocks_per_op"] = per(c.directBlocks)
	m["sim.events_per_op"] = per(c.events)
	m["sim.events_per_host_s"] = ratio(float64(c.tracedEvents), tr.spanTotal("core.Testbed.Run").Seconds())
	m["pagecache.hit_ratio"] = ratio(float64(c.hits), float64(c.hits+c.misses))
	m["pagecache.readaheads_per_op"] = per(c.readAheads)
	m["pagecache.consumed_per_op"] = per(c.consumed)
	m["pagecache.evictions_per_op"] = per(c.evictions)
	m["pagecache.writebacks_per_op"] = per(c.writebacks)
	m["pagecache.bursts_per_op"] = per(c.bursts)
	m["pagecache.dirty_hwm"] = float64(c.dirtyHWM)
	m["blockdev.seeks_per_op"] = per(c.seeks)
	m["blockdev.blocks_read_per_op"] = per(c.blocksRead)
	m["blockdev.blocks_written_per_op"] = per(c.blocksWritten)
	m["blockdev.busy_us_per_op"] = ratio(c.busyUS, n)
	m["mem.allocs_per_op"] = per(c.allocs)
	m["mem.frames_hwm"] = float64(c.framesHWM)
	m["mem.failed_allocs"] = float64(c.failedAllocs)
	m["vm.faults_per_op"] = per(c.faults)
	m["vm.tcow_copies_per_op"] = per(c.tcowCopies)
	m["vm.zero_fills_per_op"] = per(c.zeroFills)
	m["netsim.tx_frames_per_op"] = per(c.txFrames)
	m["netsim.dropped"] = float64(c.dropped)
	m["netsim.retried"] = float64(c.retried)
}
