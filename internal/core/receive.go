package core

import (
	"fmt"
	"slices"

	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// onReceive is the protocol stack's upcall at frame arrival: it matches
// the packet with the oldest posted input on its port, performs the
// ready- and dispose-time operations for the input's semantics and the
// device's buffering architecture, and completes the input after their
// latency has elapsed on the simulated clock.
func (g *Genie) onReceive(pkt netsim.Packet) {
	q := g.recvQ[pkt.Port]
	if len(q) == 0 {
		g.stats.Dropped++
		if g.tr != nil {
			g.tr.Instant(trace.CatOp, "input.unmatched", pkt.Length)
		}
		g.releasePacket(pkt)
		return
	}
	in := q[0]
	g.recvQ[pkt.Port] = slices.Delete(q, 0, 1) // in place: the queue keeps its capacity
	in.ArrivedAt = pkt.Arrival
	in.N = min(pkt.Length, in.Want)
	cpuBefore := in.ReceiverCPU // prepare-time work already spent

	var lat sim.Duration
	var err error
	switch {
	case pkt.Direct:
		lat, err = g.disposeEarlyDemux(in)
	case pkt.Overlay != nil:
		lat, err = g.disposePooled(in, pkt)
	case pkt.Outboard != nil:
		lat, err = g.disposeOutboard(in, pkt)
	default:
		err = fmt.Errorf("core: packet with no payload placement")
	}

	// Overlapped per-datagram CPU work: cell reassembly and interrupt
	// handling consume CPU without adding end-to-end latency (Figure 4).
	cells := (pkt.Length + cost.CellPayload - 1) / cost.CellPayload
	in.ReceiverCPU += g.model.PerCellCPU*float64(cells) + g.model.FixedKernelCPU

	// CPU pipelining: all post-arrival CPU work of this datagram keeps
	// the CPU busy, delaying the processing of any datagram that arrives
	// before it finishes. With a single datagram in flight, start equals
	// arrival and the end-to-end latency is unaffected.
	busy := sim.Duration(in.ReceiverCPU - cpuBefore)
	start := g.eng.Now().Max(g.cpuFreeAt)
	g.cpuFreeAt = start.Add(busy)
	done := start.Add(lat)

	if g.tr != nil && err == nil {
		g.tr.Emit(trace.Event{At: start, Dur: lat, Phase: trace.Complete, Cat: trace.CatOp,
			Name: "input.dispose", Sem: in.Sem.String(), Stage: StageDispose.String(),
			Port: in.Port, Bytes: in.N, Span: in.span})
	}
	in.disposeErr = err
	if in.finish == nil {
		in.finish = in.complete
	}
	g.eng.ScheduleAt(done, in.finish)
}

// complete ends the input once its dispose latency has elapsed.
func (in *InputOp) complete() {
	g := in.proc.g
	in.Err, in.disposeErr = in.disposeErr, nil
	in.Done = true
	in.CompletedAt = g.eng.Now()
	if g.tr != nil {
		g.tr.Emit(trace.Event{At: in.CompletedAt, Phase: trace.End, Cat: trace.CatOp, Name: "input",
			Sem: in.Sem.String(), Port: in.Port, Bytes: in.N, Span: in.span})
	}
	if in.onComplete != nil {
		in.onComplete(in)
	}
}

// releasePacket frees device resources of an unmatched packet.
func (g *Genie) releasePacket(pkt netsim.Packet) {
	if pkt.Overlay != nil && g.nic.Pool() != nil {
		g.nic.Pool().Put(pkt.Overlay...)
	}
	if pkt.Outboard != nil {
		pkt.Outboard.Free()
	}
}

// disposeEarlyDemux implements the dispose column of Table 3: the
// payload was already DMAed into the posted buffer (the application's
// own pages for in-place semantics, a system or aligned buffer for copy,
// emulated copy, and move).
func (g *Genie) disposeEarlyDemux(in *InputOp) (sim.Duration, error) {
	p := in.proc
	n := in.N
	switch in.Sem {
	case Copy:
		if on, _ := g.checksumApplies(Copy); on {
			raw := make([]byte, n+checksumTrailerLen)
			in.kbuf.readAll(raw)
			data, sum := splitTrailer(raw)
			ch, _, verr := g.verifyCopyInput(in, data, sum)
			in.Addr = in.va
			lat := g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU)
			in.kbuf.free()
			g.chargeSet(StageDispose, in.octx(), []charge{{cost.BufDeallocate, n}}, &in.ReceiverCPU)
			return lat, verr
		}
		if err := p.as.PokeBuf(in.va, g.gather(in.kbuf.frames, in.kbuf.off, n)); err != nil {
			in.kbuf.free()
			return 0, err
		}
		in.Addr = in.va
		lat := g.chargeSet(StageDispose, in.octx(), []charge{{cost.Copyout, n}}, &in.ReceiverCPU)
		// Buffer deallocation is deferred past app notification; it
		// costs CPU but no latency.
		in.kbuf.free()
		g.chargeSet(StageDispose, in.octx(), []charge{{cost.BufDeallocate, n}}, &in.ReceiverCPU)
		return lat, nil

	case EmulatedCopy:
		var buf [6]charge // the dispose charges' backing store, kept off the heap
		ch := buf[:0]
		if on, _ := g.checksumApplies(EmulatedCopy); on {
			// Verify in the system-side aligned buffer before swapping:
			// a failed checksum never reaches the application buffer,
			// preserving copy semantics (contrast ChecksumIntegrated
			// with copy semantics, which cannot).
			raw := make([]byte, n+checksumTrailerLen)
			in.kbuf.readAll(raw)
			data, sum := splitTrailer(raw)
			ch = append(ch, charge{cost.ChecksumRead, n})
			if !checksumVerify(data, sum) {
				in.Addr = in.va
				lat := g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU)
				in.kbuf.free()
				g.chargeSet(StageDispose, in.octx(), []charge{{cost.BufDeallocate, n}}, &in.ReceiverCPU)
				return lat, ErrChecksum
			}
		}
		ch, err := g.emcopyDispose(in, in.kbuf.frames, in.kbuf.off, g.kpool, ch)
		in.kbuf.frames = in.kbuf.frames[:0] // ownership transferred by emcopyDispose, even on error
		if err != nil {
			return 0, err
		}
		in.Addr = in.va
		lat := g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU)
		g.chargeSet(StageDispose, in.octx(), []charge{{cost.BufDeallocate, n}}, &in.ReceiverCPU)
		return lat, nil

	case Share:
		g.unwireFrames(in.ref)
		in.ref.Unreference()
		in.Addr = in.va
		return g.chargeSet(StageDispose, in.octx(), []charge{
			{cost.Unwire, n}, {cost.Unreference, n},
		}, &in.ReceiverCPU), nil

	case EmulatedShare:
		in.ref.Unreference()
		in.Addr = in.va
		return g.chargeSet(StageDispose, in.octx(), []charge{{cost.Unreference, n}}, &in.ReceiverCPU), nil

	case Move:
		var buf [5]charge
		ch, err := g.buildRegionFromKernelBuffer(in, in.kbuf, n, buf[:0])
		if err != nil {
			return 0, err
		}
		return g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil

	case EmulatedMove:
		r, err := g.checkRegion(p, in.region, in.ref, in.Want)
		if err != nil {
			return 0, err
		}
		in.ref.Unreference()
		p.as.Reinstate(r)
		if err := r.MarkMovedIn(); err != nil {
			return 0, err
		}
		in.Region, in.Addr = r, r.Start()
		return g.chargeSet(StageDispose, in.octx(), []charge{
			{cost.RegionCheckUnrefReinstateMarkIn, n},
		}, &in.ReceiverCPU), nil

	case WeakMove:
		r, err := g.checkRegion(p, in.region, in.ref, in.Want)
		if err != nil {
			return 0, err
		}
		g.unwireFrames(in.ref)
		in.ref.Unreference()
		if err := r.MarkMovedIn(); err != nil {
			return 0, err
		}
		in.Region, in.Addr = r, r.Start()
		return g.chargeSet(StageDispose, in.octx(), []charge{
			{cost.RegionCheck, 0}, {cost.Unwire, n}, {cost.Unreference, n}, {cost.RegionMarkIn, 0},
		}, &in.ReceiverCPU), nil

	case EmulatedWeakMove:
		r, err := g.checkRegion(p, in.region, in.ref, in.Want)
		if err != nil {
			return 0, err
		}
		in.ref.Unreference()
		if err := r.MarkMovedIn(); err != nil {
			return 0, err
		}
		in.Region, in.Addr = r, r.Start()
		return g.chargeSet(StageDispose, in.octx(), []charge{
			{cost.RegionCheckUnrefMarkIn, n},
		}, &in.ReceiverCPU), nil
	}
	return 0, fmt.Errorf("%w: %v", ErrBadSemantics, in.Sem)
}

// disposePooled implements the ready and dispose columns of Table 4:
// the payload sits in overlay pages from the device pool, and both
// stages contribute to end-to-end latency.
func (g *Genie) disposePooled(in *InputOp, pkt netsim.Packet) (sim.Duration, error) {
	p := in.proc
	n := in.N
	pool := g.nic.Pool()
	lat := g.chargeSet(StageReady, in.octx(), []charge{
		{cost.OverlayAllocate, n}, {cost.Overlay, n},
	}, &in.ReceiverCPU)

	switch in.Sem {
	case Copy:
		if err := p.as.PokeBuf(in.va, g.gather(pkt.Overlay, pkt.OverlayOff, n)); err != nil {
			pool.Put(pkt.Overlay...)
			return 0, err
		}
		pool.Put(pkt.Overlay...)
		in.Addr = in.va
		lat += g.chargeSet(StageDispose, in.octx(), []charge{
			{cost.Copyout, n}, {cost.OverlayDeallocate, n},
		}, &in.ReceiverCPU)
		return lat, nil

	case EmulatedCopy:
		var buf [4]charge
		ch, err := g.emcopyDispose(in, pkt.Overlay, pkt.OverlayOff, pool, buf[:0])
		if err != nil {
			return 0, err
		}
		in.Addr = in.va
		ch = append(ch, charge{cost.OverlayDeallocate, n})
		return lat + g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil

	case Share, EmulatedShare:
		var buf [6]charge
		ch := buf[:0]
		if in.Sem == Share {
			g.unwireFrames(in.ref)
			ch = append(ch, charge{cost.Unwire, n})
		}
		in.ref.Unreference()
		ch = append(ch, charge{cost.Unreference, n})
		ch, err := g.emcopyDispose(in, pkt.Overlay, pkt.OverlayOff, pool, ch)
		if err != nil {
			return 0, err
		}
		in.Addr = in.va
		ch = append(ch, charge{cost.OverlayDeallocate, n})
		return lat + g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil

	case Move:
		var buf [6]charge
		ch, err := g.buildRegionFromOverlay(in, pkt, pool, buf[:0])
		if err != nil {
			return 0, err
		}
		return lat + g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil

	case EmulatedMove, WeakMove, EmulatedWeakMove:
		r, err := g.checkRegion(p, in.region, in.ref, in.Want)
		if err != nil {
			pool.Put(pkt.Overlay...)
			return 0, err
		}
		var buf [7]charge
		ch := buf[:0]
		if in.Sem == WeakMove {
			g.unwireFrames(in.ref)
			ch = append(ch, charge{cost.Unwire, n})
			ch = append(ch, charge{cost.RegionCheck, 0}, charge{cost.Unreference, n})
		}
		in.ref.Unreference()
		// Swap the overlay pages into the (hidden) region, returning the
		// region's old pages to the device pool.
		ps := vm.Addr(g.pageSize())
		for i, f := range pkt.Overlay {
			old, err := p.as.KernelSwapPage(r.Start()+vm.Addr(i)*ps, f)
			if err != nil {
				pool.Put(pkt.Overlay[i:]...)
				return 0, err
			}
			if err := g.recycleFrame(pool, old); err != nil {
				return 0, err
			}
			g.stats.SwappedPages++
		}
		if in.Sem == EmulatedMove {
			p.as.Reinstate(r)
		}
		if err := r.MarkMovedIn(); err != nil {
			return 0, err
		}
		in.Region, in.Addr = r, r.Start()+vm.Addr(pkt.OverlayOff)
		switch in.Sem {
		case WeakMove:
			ch = append(ch, charge{cost.Swap, n}, charge{cost.RegionMarkIn, 0})
		default: // the fused emulated-move/emulated-weak-move dispose of Table 4
			ch = append(ch, charge{cost.RegionCheck, 0}, charge{cost.Unreference, n},
				charge{cost.Swap, n}, charge{cost.RegionMarkIn, 0})
		}
		ch = append(ch, charge{cost.OverlayDeallocate, n})
		return lat + g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil
	}
	return 0, fmt.Errorf("%w: %v", ErrBadSemantics, in.Sem)
}

// disposeOutboard implements Section 6.2.3: the payload is staged in
// adapter memory and DMAed into host buffers at dispose time, which
// gives strong integrity for every semantics — emulated copy needs no
// intermediate buffer at all and is handled much like emulated share.
func (g *Genie) disposeOutboard(in *InputOp, pkt netsim.Packet) (sim.Duration, error) {
	p := in.proc
	n := in.N
	ob := pkt.Outboard
	defer ob.Free()
	defer g.chargeSet(StageDispose, in.octx(), []charge{{cost.BufDeallocate, n}}, &in.ReceiverCPU)

	switch in.Sem {
	case Copy:
		kbuf := &in.ownKbuf
		if err := g.allocKernelBuffer(kbuf, 0, n); err != nil {
			return 0, err
		}
		ob.DMAToHost(kbuf)
		if err := p.as.PokeBuf(in.va, g.gather(kbuf.frames, kbuf.off, n)); err != nil {
			kbuf.free()
			return 0, err
		}
		kbuf.free()
		in.Addr = in.va
		return g.chargeSet(StageDispose, in.octx(), []charge{
			{cost.BufAllocate, n}, {cost.OutboardDMA, n}, {cost.Copyout, n},
		}, &in.ReceiverCPU), nil

	case EmulatedCopy:
		ref, err := p.as.ReferenceRange(in.va, n, true)
		if err != nil {
			return 0, err
		}
		ob.DMAToHost(ref)
		ref.Unreference()
		in.Addr = in.va
		return g.chargeSet(StageDispose, in.octx(), []charge{
			{cost.Reference, n}, {cost.OutboardDMA, n}, {cost.Unreference, n},
		}, &in.ReceiverCPU), nil

	case Share, EmulatedShare:
		ob.DMAToHost(in.ref)
		buf := [3]charge{{cost.OutboardDMA, n}}
		ch := buf[:1]
		if in.Sem == Share {
			g.unwireFrames(in.ref)
			ch = append(ch, charge{cost.Unwire, n})
		}
		in.ref.Unreference()
		ch = append(ch, charge{cost.Unreference, n})
		in.Addr = in.va
		return g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil

	case Move:
		kbuf := &in.ownKbuf
		if err := g.allocKernelBuffer(kbuf, 0, n); err != nil {
			return 0, err
		}
		ob.DMAToHost(kbuf)
		buf := [7]charge{{cost.BufAllocate, n}, {cost.OutboardDMA, n}}
		ch, err := g.buildRegionFromKernelBuffer(in, kbuf, n, buf[:2])
		if err != nil {
			return 0, err
		}
		return g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil

	case EmulatedMove, WeakMove, EmulatedWeakMove:
		ob.DMAToHost(in.ref)
		r, err := g.checkRegion(p, in.region, in.ref, in.Want)
		if err != nil {
			return 0, err
		}
		buf := [5]charge{{cost.OutboardDMA, n}}
		ch := buf[:1]
		switch in.Sem {
		case EmulatedMove:
			in.ref.Unreference()
			p.as.Reinstate(r)
			ch = append(ch, charge{cost.RegionCheckUnrefReinstateMarkIn, n})
		case WeakMove:
			g.unwireFrames(in.ref)
			in.ref.Unreference()
			ch = append(ch, charge{cost.RegionCheck, 0}, charge{cost.Unwire, n},
				charge{cost.Unreference, n}, charge{cost.RegionMarkIn, 0})
		case EmulatedWeakMove:
			in.ref.Unreference()
			ch = append(ch, charge{cost.RegionCheckUnrefMarkIn, n})
		}
		if err := r.MarkMovedIn(); err != nil {
			return 0, err
		}
		in.Region, in.Addr = r, r.Start()
		return g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU), nil
	}
	return 0, fmt.Errorf("%w: %v", ErrBadSemantics, in.Sem)
}

// emcopyDispose passes data from system-side pages (an aligned kernel
// buffer or overlay pages) to the application buffer with emulated copy
// semantics (Section 5.2): full pages are swapped; partially filled
// pages are copied out if the fill is below the reverse copyout
// threshold, otherwise completed from the application page and swapped.
// Ownership of the frames transfers to this function: consumed frames
// join the application's memory object, the rest return to pool. The
// charges are appended to ch.
func (g *Genie) emcopyDispose(in *InputOp, frames []*mem.Frame, frameOff int, pool *netsim.OverlayPool, ch []charge) ([]charge, error) {
	p := in.proc
	n := in.N
	ps := g.pageSize()
	va := in.va
	aligned := frameOff == int(va)%ps

	if !aligned {
		// Lack of alignment makes swapping impossible (Figure 2):
		// everything is copied out.
		g.stats.UnalignedInputs++
		g.stats.FullCopyouts++
		if err := p.as.PokeBuf(va, g.gather(frames, frameOff, n)); err != nil {
			pool.Put(frames...)
			return nil, err
		}
		pool.Put(frames...)
		return append(ch, charge{cost.Copyout, n}), nil
	}

	g.stats.AlignedInputs++
	var swapped, copied, reversed int
	// The consumed flags and the leftover list live on the stack for
	// the frames of any datagram up to 64 KB in 4 KB pages.
	var consumedBuf [stackFrames]bool
	var leftBuf [stackFrames]*mem.Frame
	consumed := consumedBuf[:]
	if len(frames) > len(consumed) {
		consumed = make([]bool, len(frames))
	}
	// putLeftovers returns the frames not consumed to the pool, in one
	// Put.
	putLeftovers := func() {
		left := leftBuf[:0]
		for fi, f := range frames {
			if !consumed[fi] {
				left = append(left, f)
			}
		}
		if len(left) > 0 {
			pool.Put(left...)
		}
	}
	// fail returns unconsumed frames to the pool before surfacing a
	// mid-loop error, so a transiently failing copyout (injected
	// allocation faults) cannot leak overlay or kernel pool pages.
	fail := func(err error) ([]charge, error) {
		putLeftovers()
		return nil, err
	}
	pageVA := vm.Addr(ps) * (va / vm.Addr(ps)) // first overlapping page
	for fi := 0; pageVA < va+vm.Addr(n); fi, pageVA = fi+1, pageVA+vm.Addr(ps) {
		dataStart := max64(va, pageVA)
		dataEnd := min64(va+vm.Addr(n), pageVA+vm.Addr(ps))
		d := int(dataEnd - dataStart)
		f := frames[fi]
		switch {
		case d == ps:
			old, err := p.as.KernelSwapPage(pageVA, f)
			if err != nil {
				return fail(err)
			}
			consumed[fi] = true
			if err := g.recycleFrame(pool, old); err != nil {
				return fail(err)
			}
			swapped += ps
			g.stats.SwappedPages++

		case d >= g.cfg.ReverseCopyoutThreshold:
			// Reverse copyout: complete the system page from the
			// application page, then swap (items 3 and 4 of Figure 2).
			head := int(dataStart - pageVA)
			tail := int(pageVA + vm.Addr(ps) - dataEnd)
			if head > 0 {
				buf, err := p.as.PeekBuf(pageVA, head)
				if err != nil {
					return fail(err)
				}
				f.WriteBuf(0, buf)
			}
			if tail > 0 {
				buf, err := p.as.PeekBuf(dataEnd, tail)
				if err != nil {
					return fail(err)
				}
				f.WriteBuf(ps-tail, buf)
			}
			old, err := p.as.KernelSwapPage(pageVA, f)
			if err != nil {
				return fail(err)
			}
			consumed[fi] = true
			if err := g.recycleFrame(pool, old); err != nil {
				return fail(err)
			}
			swapped += ps
			reversed += head + tail
			g.stats.ReverseCopyouts++
			g.stats.SwappedPages++

		default:
			// Short fill: plain copyout (item 1 of Figure 2).
			fo := int(dataStart - pageVA)
			if err := p.as.PokeBuf(dataStart, g.gather(frames[fi:], fo, d)); err != nil {
				return fail(err)
			}
			copied += d
			g.stats.PartialCopyouts++
		}
	}
	putLeftovers()

	if swapped > 0 {
		ch = append(ch, charge{cost.Swap, swapped})
	}
	if reversed > 0 {
		ch = append(ch, charge{cost.Copyout, reversed})
	}
	if copied > 0 {
		ch = append(ch, charge{cost.Copyout, copied})
	}
	return ch, nil
}

// buildRegionFromKernelBuffer implements move-semantics input dispose
// with early demultiplexed or outboard buffering (Table 3): the system
// buffer's pages are zero-completed (protection: the application must
// not see another process's stale data), attached to a fresh region, and
// mapped moved in. Consumed kernel pool pages are replaced. The charges
// are appended to ch.
func (g *Genie) buildRegionFromKernelBuffer(in *InputOp, kbuf *kernelBuffer, n int, ch []charge) ([]charge, error) {
	p := in.proc
	ps := g.pageSize()
	k := (n + ps - 1) / ps
	frames := kbuf.frames[:k]
	leftover := kbuf.frames[k:]
	kbuf.frames = kbuf.frames[:0]
	if len(leftover) > 0 {
		g.kpool.Put(leftover...)
	}

	zeroed := 0
	if tail := n % ps; tail != 0 {
		frames[k-1].ClearRange(tail, ps-tail)
		zeroed = ps - tail
	}
	obj := g.sys.NewKernelObject()
	for i, f := range frames {
		obj.InsertKernelPage(i, f)
	}
	r, err := p.as.MapObject(obj, k*ps, vm.MovedIn)
	g.sys.ReleaseKernelObject(obj)
	if err != nil {
		return nil, err
	}
	if err := g.refill(g.kpool, k); err != nil {
		return nil, err
	}
	in.Region, in.Addr = r, r.Start()
	return append(ch,
		charge{cost.RegionCreate, 0}, charge{cost.ZeroComplete, zeroed},
		charge{cost.RegionFill, n}, charge{cost.RegionMap, n}, charge{cost.RegionMarkIn, 0},
	), nil
}

// buildRegionFromOverlay implements move-semantics input dispose with
// pooled buffering (Table 4): overlay pages become the region's pages
// and the overlay pool is refilled with fresh frames. The charges are
// appended to ch.
func (g *Genie) buildRegionFromOverlay(in *InputOp, pkt netsim.Packet, pool *netsim.OverlayPool, ch []charge) ([]charge, error) {
	p := in.proc
	n := in.N
	ps := g.pageSize()
	frames := pkt.Overlay
	off := pkt.OverlayOff

	zeroed := 0
	if off > 0 {
		frames[0].ClearRange(0, off)
		zeroed += off
	}
	if end := (off + n) % ps; end != 0 {
		frames[len(frames)-1].ClearRange(end, ps-end)
		zeroed += ps - end
	}
	obj := g.sys.NewKernelObject()
	for i, f := range frames {
		obj.InsertKernelPage(i, f)
	}
	r, err := p.as.MapObject(obj, len(frames)*ps, vm.MovedIn)
	g.sys.ReleaseKernelObject(obj)
	if err != nil {
		return nil, err
	}
	if err := g.refill(pool, len(frames)); err != nil {
		return nil, err
	}
	in.Region, in.Addr = r, r.Start()+vm.Addr(off)
	return append(ch,
		charge{cost.RegionCreate, 0}, charge{cost.ZeroComplete, zeroed},
		charge{cost.RegionFillOverlayRefill, n}, charge{cost.RegionMap, n}, charge{cost.RegionMarkIn, 0},
		charge{cost.OverlayDeallocate, n},
	), nil
}

// stackFrames bounds the frame runs emcopyDispose tracks on the stack:
// a MaxFrame datagram at any page offset spans 17 pages of 4 KB.
const stackFrames = 17

func max64(a, b vm.Addr) vm.Addr {
	if a > b {
		return a
	}
	return b
}

func min64(a, b vm.Addr) vm.Addr {
	if a < b {
		return a
	}
	return b
}
