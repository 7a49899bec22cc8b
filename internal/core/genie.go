package core

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Errors reported by the Genie data path.
var (
	ErrBadSemantics    = errors.New("core: invalid semantics")
	ErrNotMovedIn      = errors.New("core: system-allocated output requires a moved-in region")
	ErrBadBuffer       = errors.New("core: bad buffer range")
	ErrUnmovableOutput = errors.New("core: system-allocated output on unmovable region")
)

// Config holds Genie's tunables. The defaults are the empirically
// determined settings from Section 7 of the paper.
type Config struct {
	// EmCopyOutputThreshold: output with emulated copy semantics shorter
	// than this converts to copy semantics automatically.
	EmCopyOutputThreshold int
	// EmShareOutputThreshold: likewise for emulated share semantics.
	EmShareOutputThreshold int
	// ReverseCopyoutThreshold: on input with emulated copy semantics,
	// partially filled pages holding at least this much data are
	// completed from the application page and swapped (reverse copyout);
	// shorter fills are simply copied out. Set just above half a page to
	// minimize copying.
	ReverseCopyoutThreshold int
	// SystemAlignment enables system input alignment: aligned-buffer
	// allocation honoring the application buffer's page offset
	// (Section 5.2). Disabling it is the paper's traditional practice
	// and forces copyout on unaligned emulated-copy input.
	SystemAlignment bool
	// KernelPoolPages sizes the kernel's buffer pool for system and
	// aligned input buffers.
	KernelPoolPages int
	// Checksum selects end-to-end payload checksumming (Section 9's
	// integration discussion); see ChecksumMode.
	Checksum ChecksumMode
}

// DefaultConfig returns the paper's settings for a given page size.
func DefaultConfig() Config {
	return Config{
		EmCopyOutputThreshold:   1666,
		EmShareOutputThreshold:  280,
		ReverseCopyoutThreshold: 2178,
		SystemAlignment:         true,
		KernelPoolPages:         64,
	}
}

// Stats counts Genie data path events.
type Stats struct {
	Outputs          uint64
	Inputs           uint64
	ConvertedToCopy  uint64 // outputs auto-converted to copy semantics
	SwappedPages     uint64
	ReverseCopyouts  uint64
	PartialCopyouts  uint64
	FullCopyouts     uint64 // inputs that fell back to copying everything
	AlignedInputs    uint64
	UnalignedInputs  uint64
	RegionsReused    uint64 // region cache hits
	RegionsAllocated uint64 // region cache misses
	RegionsRemapped  uint64 // cached regions found removed at dispose
	Dropped          uint64 // packets with no matching input operation
	RPCOrphans       uint64 // RPC responses discarded as uncorrelatable
}

// AppendHostStats appends the bytes fmt.Sprintf("nic=%+v genie=%+v",
// nic, g) makes, field by field and without reflection: the host stats
// record the cluster and workload digests fold.
func AppendHostStats(b []byte, nic netsim.Stats, g Stats) []byte {
	b = appendField(b, "nic={TxFrames:", nic.TxFrames)
	b = appendField(b, " RxFrames:", nic.RxFrames)
	b = appendField(b, " TxBytes:", nic.TxBytes)
	b = appendField(b, " RxBytes:", nic.RxBytes)
	b = appendField(b, " Delivered:", nic.Delivered)
	b = appendField(b, " Dropped:", nic.Dropped)
	b = appendField(b, " PoolFailures:", nic.PoolFailures)
	b = appendField(b, " Retried:", nic.Retried)
	b = appendField(b, " WireDrops:", nic.WireDrops)
	b = appendField(b, " WireDups:", nic.WireDups)
	b = appendField(b, " WireReorders:", nic.WireReorders)
	b = appendField(b, " WireCorrupts:", nic.WireCorrupts)
	b = appendField(b, "} genie={Outputs:", g.Outputs)
	b = appendField(b, " Inputs:", g.Inputs)
	b = appendField(b, " ConvertedToCopy:", g.ConvertedToCopy)
	b = appendField(b, " SwappedPages:", g.SwappedPages)
	b = appendField(b, " ReverseCopyouts:", g.ReverseCopyouts)
	b = appendField(b, " PartialCopyouts:", g.PartialCopyouts)
	b = appendField(b, " FullCopyouts:", g.FullCopyouts)
	b = appendField(b, " AlignedInputs:", g.AlignedInputs)
	b = appendField(b, " UnalignedInputs:", g.UnalignedInputs)
	b = appendField(b, " RegionsReused:", g.RegionsReused)
	b = appendField(b, " RegionsAllocated:", g.RegionsAllocated)
	b = appendField(b, " RegionsRemapped:", g.RegionsRemapped)
	b = appendField(b, " Dropped:", g.Dropped)
	b = appendField(b, " RPCOrphans:", g.RPCOrphans)
	return append(b, '}')
}

// appendField appends label and then v in decimal.
func appendField(b []byte, label string, v uint64) []byte {
	return strconv.AppendUint(append(b, label...), v, 10)
}

// Genie is the I/O framework instance of one host.
type Genie struct {
	name  string
	eng   *sim.Engine
	model *cost.Model
	sys   *vm.System
	nic   *netsim.NIC
	cfg   Config

	kpool *netsim.OverlayPool // kernel pool for system/aligned buffers
	ports []*portQueue        // every port an input was posted on, in first-use order

	// cpuFreeAt serializes receiver-side per-datagram CPU work: under
	// back-to-back traffic, the protocol and data passing work of one
	// datagram delays the next (the resource Figure 4 measures). A
	// single in-flight datagram is never delayed.
	cpuFreeAt sim.Time

	// stage is the bytes-plane copyout stage (gather): payload gathered
	// from kernel or overlay frames lands here and is poked into the
	// application buffer at once. runStage is its symbolic-plane
	// counterpart, a run list that gathers and page completions reuse.
	stage    []byte
	runStage mem.Buf

	// recs holds the per-frame records of the channels opened on this
	// host, ops the records Process.Input and OutputV hand out; both
	// survive Reset (see channelRecords and opRecords).
	recs channelRecords
	ops  opRecords

	instr Instrumentation
	stats Stats
	tr    *trace.Tracer
}

// NewGenie creates a Genie instance and installs it as the NIC's
// protocol stack.
func NewGenie(name string, eng *sim.Engine, model *cost.Model, sys *vm.System, nic *netsim.NIC, cfg Config) (*Genie, error) {
	if cfg.KernelPoolPages <= 0 {
		cfg.KernelPoolPages = 64
	}
	kpool, err := netsim.NewOverlayPool(sys.Phys(), cfg.KernelPoolPages)
	if err != nil {
		return nil, fmt.Errorf("core: kernel pool: %w", err)
	}
	g := &Genie{
		name:  name,
		eng:   eng,
		model: model,
		sys:   sys,
		nic:   nic,
		cfg:   cfg,
		kpool: kpool,
	}
	nic.SetRxHandler(g.onReceive)
	return g, nil
}

// Reset returns the framework instance to its post-construction state:
// no queued input operations, receiver CPU idle at time zero, zeroed
// counters, instrumentation disabled and empty. The kernel buffer pool
// re-admits the pages it lent out, so the host's PhysMem must be reset
// first. What the host only stores for reuse survives: the per-port
// input queues keep their records and storage, and the channel records
// (window slots, output and send records, payload slices) and the
// Process-API operation records return to the state they were made in,
// so the next run takes them instead of allocating. Endpoints, reliable
// channels and operation records from before the Reset must not be
// used afterwards.
func (g *Genie) Reset() {
	for _, pq := range g.ports {
		clear(pq.q)
		pq.q = pq.q[:0]
	}
	g.cpuFreeAt = 0
	g.stats = Stats{}
	g.instr.Enabled = false
	g.instr.Reset()
	g.SetTracer(nil)
	g.kpool.Reacquire()
	g.recs.reset()
	g.ops.reset()
}

// portQueue is one port's posted input operations, oldest first. A
// host keeps one record per port it has posted on, found by a linear
// search (a host uses a handful of ports), so posting and arrival touch
// no map and memory grows with the number of ports, not with their
// values. Records and their storage survive Reset.
type portQueue struct {
	port int
	q    []*InputOp
}

// queue returns port's queue record, or nil if no input was ever
// posted on port.
func (g *Genie) queue(port int) *portQueue {
	for _, pq := range g.ports {
		if pq.port == port {
			return pq
		}
	}
	return nil
}

// queueRecord returns port's queue record, making it on first use.
func (g *Genie) queueRecord(port int) *portQueue {
	if pq := g.queue(port); pq != nil {
		return pq
	}
	pq := &portQueue{port: port}
	g.ports = append(g.ports, pq)
	return pq
}

// PostedInputs returns the number of input operations posted on port
// and not yet matched with a datagram.
func (g *Genie) PostedInputs(port int) int {
	if pq := g.queue(port); pq != nil {
		return len(pq.q)
	}
	return 0
}

// Name returns the host name.
func (g *Genie) Name() string { return g.name }

// Engine returns the simulation engine.
func (g *Genie) Engine() *sim.Engine { return g.eng }

// Model returns the cost model in use.
func (g *Genie) Model() *cost.Model { return g.model }

// NIC returns the host's network adapter.
func (g *Genie) NIC() *netsim.NIC { return g.nic }

// Config returns the active configuration.
func (g *Genie) Config() Config { return g.cfg }

// Stats returns a snapshot of data path counters.
func (g *Genie) Stats() Stats { return g.stats }

// Instr exposes the per-operation instrumentation.
func (g *Genie) Instr() *Instrumentation { return &g.instr }

// KernelPool returns the kernel system-buffer pool. Harnesses check its
// free count against its total to assert no kernel buffers leaked.
func (g *Genie) KernelPool() *netsim.OverlayPool { return g.kpool }

// SetTracer installs a structured-event tracer on the data path (nil
// disables tracing; the disabled path costs one branch and allocates
// nothing). The kernel buffer pool shares the tracer so its
// acquire/release traffic appears in the same stream.
func (g *Genie) SetTracer(tr *trace.Tracer) {
	g.tr = tr
	g.kpool.SetTracer(tr, trace.CatNet, "pool.kbuf")
}

// Tracer returns the installed tracer (nil when tracing is disabled).
func (g *Genie) Tracer() *trace.Tracer { return g.tr }

// PreferredAlignment reports the input alignment the device prefers —
// the query interface applications use for application input alignment
// (Section 5.2): the byte offset within the first input page where
// payload will land, due for example to unstripped packet headers.
func (g *Genie) PreferredAlignment() int { return g.nic.PreferredOffset() }

// pageSize returns the host page size.
func (g *Genie) pageSize() int { return g.sys.PageSize() }

// Process is an application running on a Genie host.
type Process struct {
	g  *Genie
	as *vm.AddressSpace
}

// NewProcess creates an application address space on the host.
func (g *Genie) NewProcess() *Process {
	return &Process{g: g, as: g.sys.NewAddressSpace()}
}

// Genie returns the owning framework instance.
func (p *Process) Genie() *Genie { return p.g }

// Space returns the process address space.
func (p *Process) Space() *vm.AddressSpace { return p.as }

// Brk allocates an unmovable (heap-like) region of at least length bytes
// and returns its base address. Application-allocated I/O buffers live
// in such regions.
func (p *Process) Brk(length int) (vm.Addr, error) {
	r, err := p.as.AllocRegion(length, vm.Unmovable)
	if err != nil {
		return 0, err
	}
	return r.Start(), nil
}

// AllocIOBuffer explicitly allocates a system-allocated I/O buffer (a
// movable, moved-in region) — the allocation call of the
// system-allocated API (Section 2.1). Regions cached by earlier outputs
// are reused before fresh address space is consumed, the same buffer
// recycling that lets applications with balanced input and output avoid
// allocation entirely.
func (p *Process) AllocIOBuffer(length int) (*vm.Region, error) {
	size := p.as.System().PageSize()
	size = (length + size - 1) / size * size
	for _, weak := range []bool{false, true} {
		if r := p.as.DequeueCached(size, weak); r != nil {
			if err := r.MarkMovingIn(); err != nil {
				return nil, err
			}
			p.as.Reinstate(r)
			if err := r.MarkMovedIn(); err != nil {
				return nil, err
			}
			p.g.stats.RegionsReused++
			return r, nil
		}
	}
	return p.as.AllocRegion(length, vm.MovedIn)
}

// FreeIOBuffer deallocates a system-allocated I/O buffer.
func (p *Process) FreeIOBuffer(r *vm.Region) error {
	return p.as.RemoveRegion(r)
}

// Fork clones the process with copy semantics: shadow-chain COW for
// ordinary regions, physical copies where pending in-place input makes
// COW unsafe (input-disabled COW, Section 3.3).
func (p *Process) Fork() (*Process, error) {
	child, err := p.as.Fork()
	if err != nil {
		return nil, err
	}
	return &Process{g: p.g, as: child}, nil
}

// Exit terminates the process, tearing down its whole address space.
// Termination during pending I/O is safe: I/O-deferred page deallocation
// keeps in-flight pages out of the free list until the device is done
// (Section 3.1).
func (p *Process) Exit() { p.g.sys.DestroySpace(p.as) }

// Write stores data at va with full application-level fault handling.
func (p *Process) Write(va vm.Addr, data []byte) error { return p.as.Poke(va, data) }

// Read loads len(buf) bytes from va.
func (p *Process) Read(va vm.Addr, buf []byte) error { return p.as.Peek(va, buf) }

// WriteBuf stores a data-plane buffer at va: a byte copy on the bytes
// plane, a descriptor splice on the symbolic plane.
func (p *Process) WriteBuf(va vm.Addr, b mem.Buf) error { return p.as.PokeBuf(va, b) }

// ReadBuf loads length bytes from va as a data-plane buffer.
func (p *Process) ReadBuf(va vm.Addr, length int) (mem.Buf, error) {
	return p.as.PeekBuf(va, length)
}

// kernelBuffer is a system or aligned input buffer built from kernel
// pool pages: payload occupies [off, off+length) across the frames. It
// lives in its InputOp, which keeps the frame slice's storage for the
// record's next input; dispose steps that consume the frames truncate
// the slice rather than dropping it.
type kernelBuffer struct {
	frames []*mem.Frame
	off    int
	length int
	pool   *netsim.OverlayPool
}

// allocKernelBuffer fills b with pool pages for a buffer whose payload
// starts at byte offset off within the first page — offset 0 for plain
// system buffers, the application buffer's page offset for aligned
// buffers (system input alignment, Section 5.2). b holds no frames.
func (g *Genie) allocKernelBuffer(b *kernelBuffer, off, length int) error {
	frames, err := g.kpool.GetAppend(b.frames[:0], g.kpool.PagesFor(off+length))
	if err != nil {
		return err
	}
	*b = kernelBuffer{frames: frames, off: off, length: length, pool: g.kpool}
	return nil
}

// Len returns the payload capacity.
func (b *kernelBuffer) Len() int { return b.length }

// DMAWrite scatters data into the buffer at payload offset off.
func (b *kernelBuffer) DMAWrite(off int, data mem.Buf) {
	mem.ScatterFrames(b.frames, b.off+off, data)
}

// readAll copies the first len(buf) payload bytes into buf.
func (b *kernelBuffer) readAll(buf []byte) {
	mem.ReadFrames(b.frames, b.off, buf)
}

// gather returns n bytes starting at byte offset off of a kernel or
// overlay frame run, the source of a copyout. They are read into the
// Genie's stage for the plane (an O(#runs) gather on the symbolic
// plane), which is borrowed until the next gather: the caller consumes
// the result at once (PokeBuf copies it).
func (g *Genie) gather(frames []*mem.Frame, off, n int) mem.Buf {
	if n == 0 {
		return mem.Buf{}
	}
	if frames[0].Symbolic() {
		g.runStage.Reset()
		g.runStage.AppendFrames(frames, off, n)
		return g.runStage
	}
	stage := staged(&g.stage, n)
	mem.ReadFrames(frames, off, stage)
	return mem.BufBytes(stage)
}

// staged returns *stage resized to n bytes, growing its storage when it
// is too small. A stage serves synchronous copies whose source is
// consumed before the call that fills it returns: it has one owner, and
// its content is borrowed until that owner's next staged call.
func staged(stage *[]byte, n int) []byte {
	if cap(*stage) < n {
		*stage = make([]byte, n)
	}
	return (*stage)[:n]
}

// free returns all remaining frames to the pool.
func (b *kernelBuffer) free() {
	if len(b.frames) > 0 {
		b.pool.Put(b.frames...)
		b.frames = b.frames[:0]
	}
}

// wireFrames wires every frame of an I/O reference — how the
// non-emulated semantics protect buffers from pageout.
func (g *Genie) wireFrames(ref *vm.IORef) {
	for _, e := range ref.Extents() {
		g.sys.Phys().Wire(e.Frame)
	}
	if g.tr != nil {
		g.tr.Instant(trace.CatVM, "vm.wire", ref.Pages()*g.pageSize())
	}
}

// unwireFrames undoes wireFrames.
func (g *Genie) unwireFrames(ref *vm.IORef) {
	for _, e := range ref.Extents() {
		g.sys.Phys().Unwire(e.Frame)
	}
	if g.tr != nil {
		g.tr.Instant(trace.CatVM, "vm.unwire", ref.Pages()*g.pageSize())
	}
}

// recycleFrame returns a frame displaced by input page swapping to the
// given pool — unless I/O references are still draining on it, in which
// case its deallocation is deferred and the pool is refilled with a
// fresh frame instead. With no pool the frame is released.
func (g *Genie) recycleFrame(pool *netsim.OverlayPool, f *mem.Frame) error {
	if pool == nil {
		if f != nil {
			g.sys.Phys().Release(f)
		}
		return nil
	}
	if f == nil {
		return g.refill(pool, 1)
	}
	if f.Referenced() {
		g.sys.Phys().Release(f)
		return g.refill(pool, 1)
	}
	pool.Put(f)
	return nil
}

// putFrames returns frames to pool in one Put, or releases them when
// there is no pool.
func (g *Genie) putFrames(pool *netsim.OverlayPool, frames []*mem.Frame) {
	if pool != nil {
		pool.Put(frames...)
		return
	}
	for _, f := range frames {
		g.sys.Phys().Release(f)
	}
}

// Pool-refill retry bounds under injected allocation faults.
const (
	refillAttempts    = 64
	refillRetryUS     = 8.0
	repostAttempts    = 64
	repostRetryUS     = 8.0
	ackRetryUS        = 8.0
	sendAckRetryLimit = 64
)

// refill replaces consumed pool pages. A transient allocation failure
// under fault injection is absorbed by retrying on the simulated clock
// instead of surfacing — a permanently short pool would violate the
// conservation invariants chaos runs assert. Without an injector the
// error propagates unchanged (fault-free refills never fail in
// correctly sized testbeds).
func (g *Genie) refill(pool *netsim.OverlayPool, n int) error {
	err := pool.Refill(n)
	if err == nil || g.nic.FaultInjector() == nil {
		return err
	}
	g.deferRefill(pool, n, 1)
	return nil
}

func (g *Genie) deferRefill(pool *netsim.OverlayPool, n, attempt int) {
	g.eng.Schedule(sim.Duration(refillRetryUS), func() {
		if err := pool.Refill(n); err != nil && attempt < refillAttempts {
			g.deferRefill(pool, n, attempt+1)
		}
	})
}
