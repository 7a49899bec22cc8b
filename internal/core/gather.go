package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// Segment is one piece of a gathered output buffer.
type Segment struct {
	VA  vm.Addr
	Len int
}

// OutputV performs gather output (writev): the segments are transmitted
// as one datagram without first coalescing them in the application —
// protocol headers prepended to payloads being the classic case. The
// application-allocated semantics apply per segment exactly as Output
// applies them to a single buffer: with emulated copy, every segment's
// pages are referenced and TCOW-protected; the receive side is
// unaffected (one datagram arrives). System-allocated semantics operate
// on whole regions and do not compose with gather lists; use Output.
func (p *Process) OutputV(port int, sem Semantics, segs []Segment) (*OutputOp, error) {
	g := p.g
	if !sem.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadSemantics, int(sem))
	}
	if sem.SystemAllocated() {
		return nil, fmt.Errorf("%w: gather output with %v", ErrBadSemantics, sem)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("%w: empty gather list", ErrBadBuffer)
	}
	if len(segs) == 1 {
		return p.Output(port, sem, segs[0].VA, segs[0].Len)
	}
	total := 0
	for _, s := range segs {
		if s.Len <= 0 {
			return nil, fmt.Errorf("%w: segment length %d", ErrBadBuffer, s.Len)
		}
		total += s.Len
	}
	if total > netsim.MaxFrame {
		return nil, fmt.Errorf("%w: gather total %d", ErrBadBuffer, total)
	}

	op := &OutputOp{Sem: sem, Effective: sem, Port: port, Len: total, StartedAt: g.eng.Now()}
	switch {
	case sem == EmulatedCopy && total < g.cfg.EmCopyOutputThreshold:
		op.Effective = Copy
	case sem == EmulatedShare && total < g.cfg.EmShareOutputThreshold:
		op.Effective = Copy
	}
	if op.Converted() {
		g.stats.ConvertedToCopy++
	}
	if _, err := g.checksumApplies(op.Effective); err != nil {
		return nil, err
	}
	g.stats.Outputs++

	if op.Effective == Copy {
		// Coalesce by copyin, segment by segment. Gather lists are short,
		// so concatenating per-segment snapshots is cheap on both planes.
		var data mem.Buf
		for _, s := range segs {
			buf, err := p.as.PeekBuf(s.VA, s.Len)
			if err != nil {
				return nil, err
			}
			data = data.Append(buf)
		}
		prep := []charge{{cost.BufAllocate, total}, {cost.Copyin, total}}
		if g.cfg.Checksum != ChecksumNone {
			if g.cfg.Checksum == ChecksumIntegrated {
				prep = []charge{{cost.BufAllocate, total}, {cost.ChecksumCopy, total}}
			} else {
				prep = append(prep, charge{cost.ChecksumRead, total})
			}
			data = appendTrailer(data)
		}
		g.launchOutput(op, prep,
			func() (mem.Buf, error) { return data, nil }, false,
			func() []charge { return []charge{{cost.BufDeallocate, total}} })
		return op, nil
	}

	// In-place: reference each segment; page referencing costs its
	// per-byte share per segment plus the fixed descriptor work once
	// per segment (each segment is a separate scatter entry).
	refs := make([]*vm.IORef, 0, len(segs))
	rollback := func() {
		for _, r := range refs {
			if op.Effective == Share {
				g.unwireFrames(r)
			}
			r.Unreference()
		}
	}
	var prep []charge
	for _, s := range segs {
		ref, err := p.as.ReferenceRange(s.VA, s.Len, false)
		if err != nil {
			rollback()
			return nil, err
		}
		refs = append(refs, ref)
		prep = append(prep, charge{cost.Reference, s.Len})
		switch op.Effective {
		case EmulatedCopy:
			p.as.RemoveWrite(s.VA, s.Len)
			prep = append(prep, charge{cost.ReadOnly, s.Len})
		case Share:
			g.wireFrames(ref)
			prep = append(prep, charge{cost.Wire, s.Len})
		}
	}

	payload := func() (mem.Buf, error) {
		var data mem.Buf
		for i, ref := range refs {
			data = data.Append(ref.DMAReadBuf(0, segs[i].Len))
		}
		return data, nil
	}
	dispose := func() []charge {
		var ch []charge
		for i, ref := range refs {
			if op.Effective == Share {
				g.unwireFrames(ref)
				ch = append(ch, charge{cost.Unwire, segs[i].Len})
			}
			ref.Unreference()
			ch = append(ch, charge{cost.Unreference, segs[i].Len})
		}
		return ch
	}
	g.launchOutput(op, prep, payload, false, dispose)
	return op, nil
}
