package core

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// InputOp tracks one (preposted) input operation through its prepare,
// ready, and dispose stages.
type InputOp struct {
	Sem  Semantics
	Port int
	Want int // posted buffer length

	// Results, valid once Done.
	N           int        // payload bytes received
	Addr        vm.Addr    // where the data landed
	Region      *vm.Region // the input region, for system-allocated semantics
	PostedAt    sim.Time
	ArrivedAt   sim.Time
	CompletedAt sim.Time
	ReceiverCPU float64 // microseconds of CPU consumed at the receiver

	Done bool
	Err  error

	span       uint64 // trace span correlation id (0 when tracing is off)
	onComplete func(*InputOp)

	// Internal plumbing.
	proc   *Process
	va     vm.Addr       // application buffer (application-allocated)
	kbuf   *kernelBuffer // system or aligned buffer, if any (&ownKbuf)
	region *vm.Region    // system-allocated input region
	// src holds the application pages the device writes in place (the
	// share family, cached move-family regions, outboard emulated copy),
	// referenced and wired exactly as output holds its source.
	src source

	// The record's own kernel buffer; its frame slice keeps its storage
	// across reuse.
	ownKbuf kernelBuffer

	// finish is the dispose-completion event, bound once per record;
	// disposeErr is the error it reports.
	finish     func()
	disposeErr error
}

// OnComplete registers a callback invoked at dispose completion.
func (in *InputOp) OnComplete(fn func(*InputOp)) { in.onComplete = fn }

// ErrCancelled reports an input withdrawn by the application.
var ErrCancelled = errors.New("core: input cancelled")

// Cancel withdraws a pending input operation: the posted buffer leaves
// the device's list, page references (and wiring) are dropped, cached
// regions return to their queues, and kernel buffers go back to the
// pool. Cancelling a completed or already-cancelled input reports false.
// A datagram that was already in flight when the matching posting
// disappeared is simply dropped by the adapter, as on real hardware.
func (in *InputOp) Cancel() bool {
	if in.Done {
		return false
	}
	g := in.proc.g
	q := g.recvQ[in.Port]
	idx := -1
	for i, cand := range q {
		if cand == in {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false // arrival processing already claimed it
	}
	// The early-demultiplexing buffer list and the Genie queue stay in
	// lockstep; rebuild the device list from the surviving queue so
	// mid-queue cancellation cannot skew the FIFO pairing.
	g.recvQ[in.Port] = append(q[:idx:idx], q[idx+1:]...)
	g.rebuildPostings(in.Port)

	in.src.abort()
	if in.kbuf != nil {
		in.kbuf.free()
	}
	if in.region != nil && !in.region.Removed() {
		// Return the cached region to its queue.
		_ = in.region.AbortMoveIn(in.Sem == WeakMove || in.Sem == EmulatedWeakMove)
	}
	in.Done = true
	in.Err = ErrCancelled
	in.CompletedAt = g.eng.Now()
	if g.tr != nil {
		g.tr.Instant(trace.CatOp, "input.cancel", in.Want)
		g.tr.Emit(trace.Event{At: in.CompletedAt, Phase: trace.End, Cat: trace.CatOp, Name: "input",
			Sem: in.Sem.String(), Port: in.Port, Bytes: in.Want, Span: in.span})
	}
	return true
}

// rebuildPostings re-synchronizes the device's early-demultiplexing
// buffer list with the surviving posted inputs on a port.
func (g *Genie) rebuildPostings(port int) {
	if g.nic.Buffering() != netsim.EarlyDemux {
		return
	}
	for g.nic.UnpostInput(port) {
	}
	for _, in := range g.recvQ[port] {
		switch {
		case len(in.src.refs) > 0:
			g.nic.PostInput(port, &in.src.ownRef)
		case in.kbuf != nil:
			g.nic.PostInput(port, in.kbuf)
		}
	}
}

// Input posts an input operation of up to length bytes on port.
//
// For application-allocated semantics (copy, emulated copy, share,
// emulated share) the data is delivered at va in the caller's buffer.
// For system-allocated semantics (the move family) va is ignored; the
// system chooses the buffer and reports its address in the completed
// operation — the API difference at the heart of the taxonomy's
// allocation dimension (Section 2.1).
//
// Prepare-time operations run now (their cost overlaps with the sender
// and the network, consuming CPU but not end-to-end latency); ready and
// dispose operations run at packet arrival.
func (p *Process) Input(port int, sem Semantics, va vm.Addr, length int) (*InputOp, error) {
	in := new(InputOp)
	if err := p.input(in, port, sem, va, length); err != nil {
		return nil, err
	}
	return in, nil
}

// input is Input's body. It fills the caller-owned record in, which a
// channel slot reuses once the record's previous operation has ended:
// the completion callbacks and the kernel buffer's frame slice survive,
// every other field starts afresh. The record holds its page reference
// and kernel buffer itself.
func (p *Process) input(in *InputOp, port int, sem Semantics, va vm.Addr, length int) error {
	g := p.g
	if !sem.Valid() {
		return fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if length <= 0 || length > netsim.MaxFrame {
		return fmt.Errorf("%w: length %d", ErrBadBuffer, length)
	}
	*in = InputOp{
		Sem: sem, Port: port, Want: length,
		PostedAt: g.eng.Now(), proc: p, va: va,
		onComplete: in.onComplete, finish: in.finish,
		ownKbuf: kernelBuffer{frames: in.ownKbuf.frames[:0]},
	}
	in.src.init(p, sem)
	scheme := g.nic.Buffering()
	if _, err := checksumApplies(g.cfg, sem, scheme); err != nil {
		return err
	}
	g.stats.Inputs++
	if g.tr != nil {
		in.span = g.tr.NewSpan()
		g.tr.Emit(trace.Event{At: in.PostedAt, Phase: trace.Begin, Cat: trace.CatOp, Name: "input",
			Sem: sem.String(), Port: port, Bytes: length, Span: in.span})
	}

	created := false // a fresh cached region: a region-cache miss
	switch sem {
	case Copy, EmulatedCopy, Move:
		// Ready-time under early demultiplexing: the system buffer must
		// be posted before data arrives, with room for a checksum
		// trailer; outboard and pooled devices stage at arrival. System
		// input alignment (Section 5.2) starts emulated copy's buffer at
		// the application buffer's page offset, so pages can be swapped
		// at dispose; move maps its buffer in.
		if scheme == netsim.EarlyDemux {
			off := 0
			if sem == EmulatedCopy && g.cfg.SystemAlignment {
				off = int(va) % g.pageSize()
			}
			if err := in.postKernelBuffer(off, length+g.trailerLen(sem)); err != nil {
				return err
			}
		}

	case Share, EmulatedShare:
		// In-place input: reference (and for share, wire) the
		// application's pages and hand them to the device.
		if err := p.as.ReferenceRangeInto(&in.src.ownRef, va, length, true); err != nil {
			return err
		}
		in.src.hold(&in.src.ownRef)
		if scheme == netsim.EarlyDemux {
			g.nic.PostInput(port, &in.src.ownRef)
		}

	case EmulatedMove, WeakMove, EmulatedWeakMove:
		r, fresh, err := p.prepareCachedRegion(sem, length)
		if err != nil {
			return err
		}
		in.region, created = r, fresh
		if err := p.as.ReferenceRegionInto(&in.src.ownRef, r, regionSpan(g, length), true); err != nil {
			return err
		}
		in.src.hold(&in.src.ownRef)
		if scheme == netsim.EarlyDemux {
			g.nic.PostInput(port, &in.src.ownRef)
		}
	}

	var buf [4]Charge // the plan's backing store, kept off the heap
	ready, prep := planInput(buf[:0], scheme, sem, length, created)
	g.chargeSet(StageReady, in.octx(), ready, &in.ReceiverCPU)
	g.chargeSet(StagePrepare, in.octx(), prep, &in.ReceiverCPU)
	g.recvQ[port] = append(g.recvQ[port], in)
	return nil
}

// postKernelBuffer allocates the input's system or aligned buffer of
// size bytes at page offset off and posts it on the device.
func (in *InputOp) postKernelBuffer(off, size int) error {
	g := in.proc.g
	if err := g.allocKernelBuffer(&in.ownKbuf, off, size); err != nil {
		return err
	}
	in.kbuf = &in.ownKbuf
	g.nic.PostInput(in.Port, in.kbuf)
	return nil
}

// regionSpan returns the bytes a system-allocated input region must
// cover: under pooled buffering, the posted length plus the device's
// payload placement offset (unstripped headers), so swapped overlay
// pages always fit. Early-demultiplexed and outboard devices honor the
// posted buffer exactly.
func regionSpan(g *Genie, length int) int {
	if g.nic.Buffering() == netsim.Pooled {
		return length + g.nic.PreferredOffset()
	}
	return length
}

// prepareCachedRegion implements region caching (Section 2.2): dequeue a
// previously moved-out region of the right size, or allocate a fresh one
// marked moving in, reporting whether it did.
func (p *Process) prepareCachedRegion(sem Semantics, length int) (r *vm.Region, created bool, err error) {
	g := p.g
	weak := sem == WeakMove || sem == EmulatedWeakMove
	span := regionSpan(g, length)
	size := (span + g.pageSize() - 1) / g.pageSize() * g.pageSize()
	if r := p.as.DequeueCached(size, weak); r != nil {
		if err := r.MarkMovingIn(); err != nil {
			return nil, false, err
		}
		g.stats.RegionsReused++
		return r, false, nil
	}
	if r, err = p.as.AllocRegion(size, vm.MovingIn); err != nil {
		return nil, false, err
	}
	g.stats.RegionsAllocated++
	return r, true, nil
}

// checkRegion verifies at dispose time that a cached region prepared for
// input is still present in the application address space; if the
// application (advertently or not) removed it mid-input, the in-flight
// pages are mapped to a fresh region so the location returned to the
// application is always valid (Section 6.2.1).
func (g *Genie) checkRegion(p *Process, r *vm.Region, ref *vm.IORef) (*vm.Region, error) {
	if !r.Removed() {
		return r, nil
	}
	g.stats.RegionsRemapped++
	return p.adoptRegion(r.Len(), ref.Frames())
}

// adoptRegion allocates a fresh moving-in region of size bytes whose
// first pages are frames — a removed cached region's in-flight pages, or
// the cache pages a move-family FileRead donates.
func (p *Process) adoptRegion(size int, frames []*mem.Frame) (*vm.Region, error) {
	r, err := p.as.AllocRegion(size, vm.MovingIn)
	if err != nil {
		return nil, err
	}
	return r, r.AdoptFrames(frames)
}
