package core

import (
	"fmt"

	"repro/internal/cost"
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

	Done bool
	Err  error

	span   uint64 // trace span correlation id (0 when tracing is off)
	onDone func(*OutputOp)
}

// OnDone registers a callback invoked at dispose time (when the last
// cell has left the adapter and Table 2's dispose operations have run).
func (op *OutputOp) OnDone(fn func(*OutputOp)) { op.onDone = fn }

// Converted reports whether the output was auto-converted to copy
// semantics by the short-data thresholds.
func (op *OutputOp) Converted() bool { return op.Sem != op.Effective }

// Output sends length bytes at va with the chosen semantics, following
// the prepare/dispose operation sequences of Table 2. The call is
// asynchronous on the simulated clock: prepare costs elapse before the
// frame enters the wire, dispose runs when the last cell has left.
func (p *Process) Output(port int, sem Semantics, va vm.Addr, length int) (*OutputOp, error) {
	g := p.g
	if !sem.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if length <= 0 || length > netsim.MaxFrame {
		return nil, fmt.Errorf("%w: length %d", ErrBadBuffer, length)
	}
	op := &OutputOp{Sem: sem, Effective: sem, Port: port, Len: length, StartedAt: g.eng.Now()}

	// Short-data conversion (Section 6): copy semantics is very
	// efficient for short data, so emulated copy and emulated share
	// convert automatically below their thresholds. The conversion is
	// transparent: copy offers the same or stronger guarantees.
	switch {
	case sem == EmulatedCopy && length < g.cfg.EmCopyOutputThreshold:
		op.Effective = Copy
	case sem == EmulatedShare && length < g.cfg.EmShareOutputThreshold:
		op.Effective = Copy
	}
	if op.Converted() {
		g.stats.ConvertedToCopy++
	}
	g.stats.Outputs++

	withChecksum, err := g.checksumApplies(op.Effective)
	if err != nil {
		return nil, err
	}

	var (
		prep    []charge
		payload func() (mem.Buf, error) // runs at transmit time
		dispose func() []charge         // runs at dispose time, returns its charges
		// wire: payload hands the adapter a wire buffer (mem.GetWire),
		// which the receiving adapter returns to the pool. A checksum
		// trailer joins a fresh buffer instead.
		wire = !withChecksum
	)

	switch op.Effective {
	case Copy:
		// Prepare: snapshot into a system buffer. The snapshot happens
		// now, which is what gives copy semantics its integrity; on the
		// symbolic plane the snapshot is a descriptor capture, not a byte
		// copy (the charges are identical either way).
		data, err := p.peekWire(va, length)
		if err != nil {
			return nil, err
		}
		prep = []charge{{cost.BufAllocate, length}, {cost.Copyin, length}}
		payload = func() (mem.Buf, error) { return data, nil }
		if withChecksum {
			if g.cfg.Checksum == ChecksumIntegrated {
				// Checksum folded into the copyin: one combined pass.
				prep = []charge{{cost.BufAllocate, length}, {cost.ChecksumCopy, length}}
			} else {
				prep = append(prep, charge{cost.ChecksumRead, length})
			}
			payload = func() (mem.Buf, error) { return appendTrailer(data), nil }
		}
		dispose = func() []charge { return []charge{{cost.BufDeallocate, length}} }

	case EmulatedCopy:
		ref, err := p.as.ReferenceRange(va, length, false)
		if err != nil {
			return nil, err
		}
		p.as.RemoveWrite(va, length) // TCOW protection (Section 5.1)
		prep = []charge{{cost.Reference, length}, {cost.ReadOnly, length}}
		payload = refPayload(ref, length)
		if withChecksum {
			// No copy exists to fold the checksum into: a separate
			// read-only pass over the (TCOW-protected, hence stable)
			// application pages.
			prep = append(prep, charge{cost.ChecksumRead, length})
			inner := payload
			payload = func() (mem.Buf, error) {
				data, err := inner()
				if err != nil {
					return mem.Buf{}, err
				}
				return appendTrailer(data), nil
			}
		}
		dispose = func() []charge {
			ref.Unreference()
			return []charge{{cost.Unreference, length}}
		}

	case Share:
		ref, err := p.as.ReferenceRange(va, length, false)
		if err != nil {
			return nil, err
		}
		g.wireFrames(ref)
		prep = []charge{{cost.Reference, length}, {cost.Wire, length}}
		payload = refPayload(ref, length)
		dispose = func() []charge {
			g.unwireFrames(ref)
			ref.Unreference()
			return []charge{{cost.Unwire, length}, {cost.Unreference, length}}
		}

	case EmulatedShare:
		ref, err := p.as.ReferenceRange(va, length, false)
		if err != nil {
			return nil, err
		}
		prep = []charge{{cost.Reference, length}}
		payload = refPayload(ref, length)
		dispose = func() []charge {
			ref.Unreference()
			return []charge{{cost.Unreference, length}}
		}

	case Move, EmulatedMove, WeakMove, EmulatedWeakMove:
		return p.outputSystemAllocated(op, port, va, length)

	default:
		return nil, fmt.Errorf("%w: %v", ErrBadSemantics, sem)
	}

	g.launchOutput(op, prep, payload, wire, dispose)
	return op, nil
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

// outputSystemAllocated handles the move-family output path: the buffer
// must be an entire moved-in region, which the operation consumes.
func (p *Process) outputSystemAllocated(op *OutputOp, port int, va vm.Addr, length int) (*OutputOp, error) {
	g := p.g
	r := p.as.FindRegion(va)
	if r == nil {
		return nil, fmt.Errorf("%w: no region at %#x", ErrBadBuffer, va)
	}
	// Deallocating pieces of the heap or stack would open inconsistent
	// gaps, so output is only allowed on moved-in regions (Section 2.1).
	if r.State() == vm.Unmovable {
		return nil, fmt.Errorf("%w: %v", ErrUnmovableOutput, r)
	}
	if r.State() != vm.MovedIn {
		return nil, fmt.Errorf("%w: %v", ErrNotMovedIn, r)
	}
	if va != r.Start() || length > r.Len() {
		return nil, fmt.Errorf("%w: output [%#x,+%d) must start a region no larger than it", ErrBadBuffer, va, length)
	}
	if err := r.MarkMovingOut(); err != nil {
		return nil, err
	}
	ref, err := p.as.ReferenceRegion(r, length, false)
	if err != nil {
		_ = r.AbortMoveOut() // roll back; the region was untouched
		return nil, err
	}

	sem := op.Effective
	prep := []charge{{cost.Reference, length}}
	if sem == Move || sem == WeakMove {
		g.wireFrames(ref)
		prep = append(prep, charge{cost.Wire, length})
	}
	prep = append(prep, charge{cost.RegionMarkOut, 0})
	if sem == Move || sem == EmulatedMove {
		// Strong integrity: the application loses all access now.
		p.as.Invalidate(r.Start(), r.Len())
		prep = append(prep, charge{cost.Invalidate, length})
	}

	payload := refPayload(ref, length)
	dispose := func() []charge {
		var ch []charge
		if sem == Move || sem == WeakMove {
			g.unwireFrames(ref)
			ch = append(ch, charge{cost.Unwire, length})
		}
		ref.Unreference()
		ch = append(ch, charge{cost.Unreference, length})
		switch sem {
		case Move:
			// The region is genuinely removed; its pages are released
			// (already unreferenced above, so immediately).
			if err := p.as.RemoveRegion(r); err == nil {
				ch = append(ch, charge{cost.RegionRemove, 0})
			}
		case EmulatedMove:
			// Region hiding: keep the region, enqueue it for reuse.
			if err := r.MarkMovedOut(); err == nil {
				ch = append(ch, charge{cost.RegionMarkOut, 0})
			}
		case WeakMove, EmulatedWeakMove:
			if err := r.MarkWeaklyMovedOut(); err == nil {
				ch = append(ch, charge{cost.RegionMarkOut, 0})
			}
		}
		return ch
	}

	g.launchOutput(op, prep, payload, true, dispose)
	return op, nil
}

// refPayload builds the transmit-time payload reader for in-place
// output: the device DMAs from the referenced pages into a wire buffer
// when the frame is serialized, so weak-integrity semantics observe
// application overwrites up to that moment.
func refPayload(ref *vm.IORef, length int) func() (mem.Buf, error) {
	return func() (mem.Buf, error) {
		return ref.DMAReadBuf(0, length), nil
	}
}

// launchOutput charges prepare, schedules transmission after the prepare
// latency, and hooks dispose to the adapter's completion callback. wire
// reports that payload returns a wire buffer, handed to the adapter with
// TransmitDatagramWire; otherwise it goes by TransmitDatagramBuf.
func (g *Genie) launchOutput(op *OutputOp, prep []charge, payload func() (mem.Buf, error), wire bool, dispose func() []charge) {
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
	g.eng.Schedule(prepDur, func() {
		data, err := payload()
		if err != nil {
			op.Err = err
			op.Done = true
			return
		}
		sent := func() {
			ch := dispose()
			dispDur := g.chargeSet(StageDispose, op.octx(), ch, &op.SenderCPU)
			op.SentAt = g.eng.Now()
			if g.tr != nil {
				g.tr.Emit(trace.Event{At: op.SentAt, Dur: dispDur, Phase: trace.Complete, Cat: trace.CatOp,
					Name: "output.dispose", Sem: op.Effective.String(), Stage: StageDispose.String(),
					Port: op.Port, Bytes: op.Len, Span: op.span})
				g.tr.Emit(trace.Event{At: op.SentAt, Phase: trace.End, Cat: trace.CatOp, Name: "output",
					Sem: op.Effective.String(), Port: op.Port, Bytes: op.Len, Span: op.span})
			}
			op.Done = true
			if op.onDone != nil {
				op.onDone(op)
			}
		}
		if wire {
			err = g.nic.TransmitDatagramWire(op.Port, data, sent)
		} else {
			err = g.nic.TransmitDatagramBuf(op.Port, data, sent)
		}
		if err != nil {
			op.Err = err
			op.Done = true
			if op.onDone != nil {
				op.onDone(op)
			}
		}
	})
}
