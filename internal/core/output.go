package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// OutputOp tracks one output operation through its prepare and dispose
// stages.
type OutputOp struct {
	Sem       Semantics
	Effective Semantics // after short-data conversion to copy
	Port      int
	Len       int

	StartedAt  sim.Time
	PreparedAt sim.Time // when control returns to the application
	SentAt     sim.Time // when the last cell left the adapter (dispose)
	SenderCPU  float64  // microseconds of CPU consumed at the sender

	Done    bool
	trailer bool // the payload carries a checksum trailer
	wire    bool // the payload is one wire buffer
	Err     error

	span   uint64  // trace span correlation id (0 when tracing is off)
	src    *source // the held application buffer (&held; nil under copy)
	onDone func(*OutputOp)
	// disp is the planned dispose set, held in dispBuf for up to three
	// held segments.
	disp    []Charge
	dispBuf [6]Charge

	g    *Genie
	held source  // src's storage
	snap mem.Buf // the copy-semantics snapshot, until transmit
	// launch and sent are the transmit event and the adapter's
	// completion callback, bound once per record.
	launch, sent func()
}

// Converted reports whether the output was auto-converted to copy
// semantics by the short-data thresholds.
func (op *OutputOp) Converted() bool { return op.Sem != op.Effective }

// Segment is one piece of a gathered output buffer.
type Segment struct {
	VA  vm.Addr
	Len int
}

// Output sends length bytes at va with the chosen semantics: OutputV
// with one segment.
func (p *Process) Output(port int, sem Semantics, va vm.Addr, length int) (*OutputOp, error) {
	return p.OutputV(port, sem, []Segment{{va, length}})
}

// OutputV sends the segments as one datagram (writev), following the
// prepare/dispose operation sequences of Table 2 — protocol headers
// prepended to payloads being the classic gather case. The
// application-allocated semantics apply per segment exactly as to a
// single buffer: with emulated copy, every segment's pages are
// referenced and TCOW-protected. The move family consumes a whole
// moved-in region and so takes exactly one segment, the region's start.
// The call is asynchronous on the simulated clock: prepare costs elapse
// before the frame enters the wire, dispose runs when the last cell has
// left. The receive side is unaffected (one datagram arrives).
func (p *Process) OutputV(port int, sem Semantics, segs []Segment) (*OutputOp, error) {
	op := new(OutputOp)
	if err := p.outputV(op, port, sem, segs); err != nil {
		return nil, err
	}
	return op, nil
}

// outputV is OutputV's body. It fills the caller-owned record op, which
// an endpoint reuses once the record's previous output is done: the
// completion callbacks survive, every other field starts afresh.
func (p *Process) outputV(op *OutputOp, port int, sem Semantics, segs []Segment) error {
	g := p.g
	if !sem.Valid() {
		return fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if len(segs) == 0 {
		return fmt.Errorf("%w: empty gather list", ErrBadBuffer)
	}
	if sem.SystemAllocated() && len(segs) > 1 {
		return fmt.Errorf("%w: gather output with %v", ErrBadSemantics, sem)
	}
	total := 0
	for _, s := range segs {
		if s.Len <= 0 {
			return fmt.Errorf("%w: length %d", ErrBadBuffer, s.Len)
		}
		total += s.Len
	}
	if total > netsim.MaxFrame {
		return fmt.Errorf("%w: length %d", ErrBadBuffer, total)
	}
	*op = OutputOp{
		Sem: sem, Effective: sem, Port: port, Len: total, StartedAt: g.eng.Now(),
		g: g, onDone: op.onDone, launch: op.launch, sent: op.sent,
	}

	op.Effective = g.cfg.outputSemantics(sem, total)
	if op.Converted() {
		g.stats.ConvertedToCopy++
	}
	g.stats.Outputs++

	withChecksum, err := checksumApplies(g.cfg, op.Effective, g.nic.Buffering())
	if err != nil {
		return err
	}
	var buf [8]Charge // prep's backing store, kept off the heap
	prep := planOutputPrepare(buf[:0], g.cfg, op.Effective, withChecksum, segs)
	op.disp = planOutputDispose(op.dispBuf[:0], op.Effective, segs)
	var snap mem.Buf
	if op.Effective == Copy {
		// Prepare: snapshot into a system buffer. The snapshot happens
		// now, which is what gives copy semantics its integrity; on the
		// symbolic plane the snapshot is a descriptor capture, not a byte
		// copy (the charges are identical either way).
		for _, s := range segs {
			data, err := p.peekWire(s.VA, s.Len)
			if err != nil {
				return err
			}
			snap = snap.Append(data)
		}
	} else {
		if err := p.reference(&op.held, op.Effective, segs); err != nil {
			return err
		}
		op.src = &op.held
	}
	op.trailer = withChecksum
	op.wire = len(segs) == 1 && !withChecksum
	g.launchOutput(op, prep, snap)
	return nil
}

// peekWire is the copy-semantics output snapshot: length bytes at va,
// read with full fault handling into a wire buffer on the bytes plane
// (a run gather on the symbolic plane).
func (p *Process) peekWire(va vm.Addr, length int) (mem.Buf, error) {
	if p.g.sys.Phys().Symbolic() {
		return p.as.PeekBuf(va, length)
	}
	buf := mem.GetWire(length)
	if err := p.as.Peek(va, buf); err != nil {
		mem.PutWire(buf)
		return mem.Buf{}, err
	}
	return mem.BufBytes(buf), nil
}

// source is an application buffer held in place for a device: Table 2's
// sender side for every semantics except copy, whose data leaves
// through a system buffer instead, and the receive side's in-place
// pages. Output, OutputV, FileWrite, Input and FileRead share it; an
// OutputOp and an InputOp keep theirs in the record.
type source struct {
	p      *Process
	sem    Semantics
	refs   []*vm.IORef  // one per segment
	one    [1]*vm.IORef // refs' backing store for one segment
	ownRef vm.IORef     // the first segment's reference
	region *vm.Region   // the region a move-family operation consumes
}

// reference is the prepare half, filling src. Per segment it
// references the pages, then TCOW-protects them (emulated copy) or
// wires them (share). The move family takes exactly one segment, the
// start of a moved-in region, which the operation consumes. A failing
// segment releases the segments before it.
func (p *Process) reference(src *source, sem Semantics, segs []Segment) error {
	src.init(p, sem)
	if sem.SystemAllocated() {
		return src.moveOut(segs[0])
	}
	for i, s := range segs {
		ref := &src.ownRef
		if i > 0 {
			ref = new(vm.IORef)
		}
		if err := p.as.ReferenceRangeInto(ref, s.VA, s.Len, false); err != nil {
			src.abort()
			return err
		}
		src.hold(ref)
		if sem == EmulatedCopy {
			p.as.RemoveWrite(s.VA, s.Len) // TCOW protection (Section 5.1)
		}
	}
	return nil
}

// init empties src for an operation of p under sem.
func (src *source) init(p *Process, sem Semantics) {
	*src = source{p: p, sem: sem}
	src.refs = src.one[:0]
}

// moveOut references the moved-in region starting at s for a
// move-family operation that consumes it.
func (src *source) moveOut(s Segment) error {
	as := src.p.as
	r := as.FindRegion(s.VA)
	if r == nil {
		return fmt.Errorf("%w: no region at %#x", ErrBadBuffer, s.VA)
	}
	// Deallocating pieces of the heap or stack would open inconsistent
	// gaps, so output is only allowed on moved-in regions (Section 2.1).
	if r.State() == vm.Unmovable {
		return fmt.Errorf("%w: %v", ErrUnmovableOutput, r)
	}
	if r.State() != vm.MovedIn {
		return fmt.Errorf("%w: %v", ErrNotMovedIn, r)
	}
	if s.VA != r.Start() || s.Len > r.Len() {
		return fmt.Errorf("%w: [%#x,+%d) must start a region no larger than it", ErrBadBuffer, s.VA, s.Len)
	}
	if err := r.MarkMovingOut(); err != nil {
		return err
	}
	if err := as.ReferenceRegionInto(&src.ownRef, r, s.Len, false); err != nil {
		_ = r.AbortMoveOut() // roll back; the region was untouched
		return err
	}
	src.region = r
	src.hold(&src.ownRef)
	if !src.sem.WeakIntegrity() {
		// Strong integrity: the application loses all access now.
		as.Invalidate(r.Start(), r.Len())
	}
	return nil
}

// hold keeps referenced bytes for the device, wiring them against
// pageout under the non-emulated semantics (share, move, weak move).
func (src *source) hold(ref *vm.IORef) {
	src.refs = append(src.refs, ref)
	if !src.sem.Emulated() {
		src.p.g.wireFrames(ref)
	}
}

// read is the device's DMA out of the held pages — one wire buffer for
// one segment, a concatenation for several. Output reads at transmit
// time, so weak-integrity semantics observe application overwrites up
// to that moment.
func (src *source) read() mem.Buf {
	var data mem.Buf
	for _, ref := range src.refs {
		data = data.Append(ref.DMAReadBuf(0, ref.Len()))
	}
	return data
}

// release is the dispose half: every segment is unwired and
// unreferenced, then a move's region is removed or hidden. It fails if
// the application removed the region meanwhile.
func (src *source) release() error {
	src.unhold()
	r := src.region
	switch src.sem {
	case Move:
		// The region is genuinely removed; its pages are released
		// (already unreferenced above, so immediately).
		return src.p.as.RemoveRegion(r)
	case EmulatedMove:
		// Region hiding: keep the region, enqueue it for reuse.
		return r.MarkMovedOut()
	case WeakMove, EmulatedWeakMove:
		return r.MarkWeaklyMovedOut()
	}
	return nil
}

// unhold unwires and unreferences every segment.
func (src *source) unhold() {
	for _, ref := range src.refs {
		if !src.sem.Emulated() {
			src.p.g.unwireFrames(ref)
		}
		ref.Unreference()
	}
}

// abort rolls the prepare half back when no device will read the held
// pages: every segment is unwired and unreferenced, and a move's region
// returns to moved in with the application's access reinstated, so a
// failed operation leaves the buffer as it found it.
func (src *source) abort() {
	src.unhold()
	if r := src.region; r != nil {
		_ = r.AbortMoveOut()
		if !src.sem.WeakIntegrity() {
			src.p.as.Reinstate(r)
		}
	}
}

// launchOutput charges prepare and, after the prepare latency, hands the
// adapter the payload (transmit), with dispose hooked to the adapter's
// completion callback.
func (g *Genie) launchOutput(op *OutputOp, prep []Charge, snap mem.Buf) {
	if g.tr != nil {
		op.span = g.tr.NewSpan()
		g.tr.Emit(trace.Event{At: op.StartedAt, Phase: trace.Begin, Cat: trace.CatOp, Name: "output",
			Sem: op.Effective.String(), Port: op.Port, Bytes: op.Len, Span: op.span})
	}
	prepDur := g.chargeSet(StagePrepare, op.octx(), prep, &op.SenderCPU)
	op.PreparedAt = g.eng.Now().Add(prepDur)
	if g.tr != nil {
		g.tr.Emit(trace.Event{At: op.StartedAt, Dur: prepDur, Phase: trace.Complete, Cat: trace.CatOp,
			Name: "output.prepare", Sem: op.Effective.String(), Stage: StagePrepare.String(),
			Port: op.Port, Bytes: op.Len, Span: op.span})
	}
	op.snap = snap
	if op.launch == nil {
		op.launch, op.sent = op.transmit, op.dispose
	}
	g.eng.Schedule(prepDur, op.launch)
}

// transmit hands the adapter the payload — the snapshot under copy, the
// held pages read now otherwise. A single-segment payload without a
// checksum trailer is a wire buffer, handed over with
// TransmitDatagramWire; any other goes by TransmitDatagramBuf.
func (op *OutputOp) transmit() {
	g := op.g
	data := op.snap
	op.snap = mem.Buf{}
	if op.src != nil {
		data = op.src.read()
	}
	if op.trailer {
		data = appendTrailer(data)
	}
	var err error
	if op.wire {
		err = g.nic.TransmitDatagramWire(op.Port, data, op.sent)
	} else {
		err = g.nic.TransmitDatagramBuf(op.Port, data, op.sent)
	}
	if err != nil {
		op.Err = err
		op.finish()
	}
}

// dispose runs Table 2's dispose half once the last cell has left the
// adapter.
func (op *OutputOp) dispose() {
	g := op.g
	if op.src != nil {
		op.Err = op.src.release()
	}
	dispDur := g.chargeSet(StageDispose, op.octx(), op.disp, &op.SenderCPU)
	op.SentAt = g.eng.Now()
	if g.tr != nil {
		g.tr.Emit(trace.Event{At: op.SentAt, Dur: dispDur, Phase: trace.Complete, Cat: trace.CatOp,
			Name: "output.dispose", Sem: op.Effective.String(), Stage: StageDispose.String(),
			Port: op.Port, Bytes: op.Len, Span: op.span})
		g.tr.Emit(trace.Event{At: op.SentAt, Phase: trace.End, Cat: trace.CatOp, Name: "output",
			Sem: op.Effective.String(), Port: op.Port, Bytes: op.Len, Span: op.span})
	}
	op.finish()
}

// finish marks the output done and runs its callback, which may recycle
// the record: nothing touches op afterwards.
func (op *OutputOp) finish() {
	op.Done = true
	if op.onDone != nil {
		op.onDone(op)
	}
}
