package core

import (
	"errors"
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
// the packet with the oldest posted input on its port, stages the
// payload where the device's buffering architecture leaves it, performs
// the ready- and dispose-time operations for the input's semantics, and
// completes the input after their latency has elapsed on the simulated
// clock.
func (g *Genie) onReceive(pkt netsim.Packet) {
	pq := g.queue(pkt.Port)
	if pq == nil || len(pq.q) == 0 {
		g.stats.Dropped++
		if g.tr != nil {
			g.tr.Instant(trace.CatOp, "input.unmatched", pkt.Length)
		}
		g.releasePacket(pkt)
		return
	}
	in := pq.q[0]
	pq.q = slices.Delete(pq.q, 0, 1) // in place: the queue keeps its capacity
	in.ArrivedAt = pkt.Arrival
	in.N = min(pkt.Length, in.Want)
	cpuBefore := in.ReceiverCPU // prepare-time work already spent
	n := in.N

	var (
		lat sim.Duration
		err error
		st  staging
		ovl kernelBuffer // overlay pages, under pooled buffering
		buf [12]Charge   // the plan's backing store, kept off the heap
	)
	ps := g.pageSize()
	rp := planReceive(buf[:0], g.cfg, g.nic.Buffering(), in.Sem, n, pkt.OverlayOff, int(in.va)%ps, ps)
	switch {
	case pkt.Direct:
		// Table 3: the payload was DMAed into the posted buffer, a
		// system or aligned buffer or the application's own pages.
		st = staging{buf: in.kbuf, posted: true}
		lat, err = g.dispose(in, &st, &rp)
	case pkt.Overlay != nil:
		// Table 4: the payload sits in overlay pages from the device
		// pool, and the ready stage contributes to latency as well.
		ready := g.chargeSet(StageReady, in.octx(), rp.ready, &in.ReceiverCPU)
		ovl = kernelBuffer{frames: pkt.Overlay, off: pkt.OverlayOff, pool: g.nic.Pool()}
		st = staging{buf: &ovl}
		if lat, err = g.dispose(in, &st, &rp); err == nil {
			lat = ready + lat
		}
	case pkt.Outboard != nil:
		// Section 6.2.3: the payload waits in adapter memory and is
		// DMAed into its staging place at dispose time, which gives
		// strong integrity for every semantics.
		if err = g.stageOutboard(in, pkt.Outboard, &st); err == nil {
			lat, err = g.dispose(in, &st, &rp)
		}
		g.chargeSet(StageDispose, in.octx(), rp.dealloc, &in.ReceiverCPU)
		pkt.Outboard.Free()
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

// staging is where a received payload waits at dispose time. It is a
// run of frames — a kernel buffer (early demultiplexing; outboard copy
// and move after their DMA) or overlay pages (pooled buffering) — or,
// with buf nil, the application's own pages, held in the input's
// source (the in-place semantics and cached move-family regions, with
// outboard DMAing into them first). The page cache is FileRead's
// staging place, and adapter memory is only ever the source of
// outboard's DMA.
type staging struct {
	buf *kernelBuffer // the frames holding the payload; nil: the application's pages
	// posted marks the early-demultiplexed posted buffer: its frames
	// return to the pool after the dispose charges, followed by the
	// plan's deferred deallocation.
	posted bool
}

// release returns the frames not yet consumed to their pool.
func (st *staging) release() {
	if st.buf != nil {
		st.buf.free()
	}
}

// stageOutboard DMAs the outboard payload into its staging place:
// application-allocated in-place buffers receive it directly (emulated
// copy references its buffer now), copy and move stage it in a fresh
// kernel buffer.
func (g *Genie) stageOutboard(in *InputOp, ob *netsim.OutboardBuffer, st *staging) error {
	n := in.N
	var target netsim.DMATarget = &in.src.ownRef
	switch in.Sem {
	case Copy, Move:
		if err := g.allocKernelBuffer(&in.ownKbuf, 0, n); err != nil {
			return err
		}
		st.buf, target = &in.ownKbuf, &in.ownKbuf
	case EmulatedCopy:
		// Strong integrity without an intermediate buffer: the adapter
		// writes the application buffer only now.
		if err := in.proc.as.ReferenceRangeInto(&in.src.ownRef, in.va, n, true); err != nil {
			return err
		}
		in.src.hold(&in.src.ownRef)
	}
	ob.DMAToHost(target)
	return nil
}

// dispose is the dispose column of Tables 3 and 4 and Section 6.2.3 for
// every staging place: one step per semantics, checked against the
// plan's work and charged as the plan's dispose set. A checksum failure
// charges the plan up to its verify charge and is reported like a
// delivery; any other error returns no latency.
func (g *Genie) dispose(in *InputOp, st *staging, rp *receivePlan) (sim.Duration, error) {
	var (
		done     vmWork
		bad, err error // bad: a checksummed delivery that failed, charged as delivered
	)
	switch in.Sem {
	case Copy:
		if rp.verified > 0 {
			err = g.verifyStaged(in, st.buf)
		} else {
			err = in.proc.as.PokeBuf(in.va, g.gather(st.buf.frames, st.buf.off, in.N))
		}
		if errors.Is(err, ErrChecksum) {
			bad, err = err, nil
		}
		if err != nil || !st.posted {
			st.release()
		}
	case EmulatedCopy, Share, EmulatedShare:
		// Verify in the system-side aligned buffer before swapping: a
		// failed checksum never reaches the application buffer,
		// preserving copy semantics.
		if rp.verified > 0 {
			bad = g.verifyStaged(in, st.buf)
		}
		if bad == nil {
			in.src.unhold()
			if st.buf != nil {
				done, err = g.emcopyDispose(in, st.buf)
			}
		}
	case Move:
		done, err = g.mapStaged(in, st)
	case EmulatedMove, WeakMove, EmulatedWeakMove:
		done, err = g.moveIn(in, st)
	default:
		err = fmt.Errorf("%w: %v", ErrBadSemantics, in.Sem)
	}
	if err == nil && bad == nil {
		err = rp.work.check("input dispose", in.Sem, done)
	}
	if err != nil {
		return 0, err
	}
	if !in.Sem.SystemAllocated() {
		in.Addr = in.va
	}
	ch := rp.dispose
	if bad != nil {
		ch = ch[:rp.verified]
	}
	lat := g.chargeSet(StageDispose, in.octx(), ch, &in.ReceiverCPU)
	if st.posted {
		st.release()
		g.chargeSet(StageDispose, in.octx(), rp.dealloc, &in.ReceiverCPU)
	}
	return lat, bad
}

// emcopyDispose passes the staged frames to the application buffer with
// emulated copy semantics (Section 5.2): aligned pages go through the
// page-swap loop; without alignment everything is copied out (Figure 2).
// Ownership of the frames transfers to this function.
func (g *Genie) emcopyDispose(in *InputOp, b *kernelBuffer) (vmWork, error) {
	n, va := in.N, in.va
	if b.off != int(va)%g.pageSize() {
		g.stats.UnalignedInputs++
		g.stats.FullCopyouts++
		err := in.proc.as.PokeBuf(va, g.gather(b.frames, b.off, n))
		b.free()
		return vmWork{copied: n}, err
	}
	g.stats.AlignedInputs++
	w, err := g.swapIn(in.proc.as, va, n, b, false)
	g.stats.SwappedPages += uint64(w.swapped / g.pageSize())
	return w, err
}

// swapIn is the page-swap loop: it passes the n bytes staged in b to
// [va, va+n) of as, whose page offset matches b's. Full pages are
// swapped in. A partially filled page is completed from the
// application page and swapped if its fill reaches the reverse copyout
// threshold, and copied out otherwise — unless whole is set, when every
// frame of b is swapped in regardless of fill (a hidden system-allocated
// region has no neighbouring application data to preserve). Displaced
// frames, and frames left unconsumed (also on error), return to b's
// pool, or to physical memory when b has none. It returns the bytes
// swapped, reverse-copied and copied out.
func (g *Genie) swapIn(as *vm.AddressSpace, va vm.Addr, n int, b *kernelBuffer, whole bool) (w vmWork, err error) {
	ps := g.pageSize()
	frames := b.frames
	// The consumed flags and the leftover list live on the stack for
	// the frames of any datagram up to 64 KB in 4 KB pages.
	var consumedBuf [stackFrames]bool
	var leftBuf [stackFrames]*mem.Frame
	consumed := consumedBuf[:]
	if len(frames) > len(consumed) {
		consumed = make([]bool, len(frames))
	}
	end := va + vm.Addr(n)
	pageVA := vm.Addr(ps) * (va / vm.Addr(ps)) // first overlapping page
	for fi := 0; fi < len(frames) && (whole || pageVA < end); fi, pageVA = fi+1, pageVA+vm.Addr(ps) {
		dataStart := max(va, pageVA)
		dataEnd := min(end, pageVA+vm.Addr(ps))
		d := int(dataEnd - dataStart)
		f := frames[fi]
		if d < ps && !whole && d < g.cfg.ReverseCopyoutThreshold {
			// Short fill: plain copyout (item 1 of Figure 2).
			if err = as.PokeBuf(dataStart, g.gather(frames[fi:], int(dataStart-pageVA), d)); err != nil {
				break
			}
			w.copied += d
			g.stats.PartialCopyouts++
			continue
		}
		if d < ps && !whole {
			// Reverse copyout: complete the system page from the
			// application page, then swap (items 3 and 4 of Figure 2).
			head := int(dataStart - pageVA)
			tail := int(pageVA + vm.Addr(ps) - dataEnd)
			if err = g.completePage(as, f, pageVA, 0, head); err != nil {
				break
			}
			if err = g.completePage(as, f, dataEnd, ps-tail, tail); err != nil {
				break
			}
			w.reversed += head + tail
			g.stats.ReverseCopyouts++
		}
		var old *mem.Frame
		if old, err = as.KernelSwapPage(pageVA, f); err != nil {
			break
		}
		consumed[fi] = true
		w.swapped += ps
		if err = g.recycleFrame(b.pool, old); err != nil {
			break
		}
	}
	left := leftBuf[:0]
	for fi, f := range frames {
		if !consumed[fi] {
			left = append(left, f)
		}
	}
	b.frames = frames[:0]
	if len(left) > 0 {
		g.putFrames(b.pool, left)
	}
	return w, err
}

// completePage copies the k application bytes at va into frame f at
// offset off, completing a partially filled system page before a swap.
// The bytes pass through the Genie's stage for the plane.
func (g *Genie) completePage(as *vm.AddressSpace, f *mem.Frame, va vm.Addr, off, k int) error {
	if k == 0 {
		return nil
	}
	if f.Symbolic() {
		g.runStage.Reset()
		if err := as.PeekBufInto(&g.runStage, va, k); err != nil {
			return err
		}
		f.WriteBuf(off, g.runStage)
		return nil
	}
	stage := staged(&g.stage, k)
	if err := as.Peek(va, stage); err != nil {
		return err
	}
	f.WriteBuf(off, mem.BufBytes(stage))
	return nil
}

// mapStaged is move-semantics input dispose from staged frames (Tables
// 3 and 4): the pages holding the payload are zero-completed
// (protection: the application must not see another process's stale
// data), attached to a fresh region and mapped moved in; frames beyond
// the payload return to the pool and consumed pool pages are replaced.
// It returns the bytes zero-completed.
func (g *Genie) mapStaged(in *InputOp, st *staging) (w vmWork, err error) {
	n, ps, b := in.N, g.pageSize(), st.buf
	off := b.off
	k := (off + n + ps - 1) / ps
	frames := b.frames[:k]
	if leftover := b.frames[k:]; len(leftover) > 0 {
		b.pool.Put(leftover...)
	}
	b.frames = b.frames[:0]

	if off > 0 {
		frames[0].ClearRange(0, off)
		w.zeroed += off
	}
	if end := (off + n) % ps; end != 0 {
		frames[k-1].ClearRange(end, ps-end)
		w.zeroed += ps - end
	}
	obj := g.sys.NewKernelObject()
	for i, f := range frames {
		obj.InsertKernelPage(i, f)
	}
	r, err := in.proc.as.MapObject(obj, k*ps, vm.MovedIn)
	g.sys.ReleaseKernelObject(obj)
	if err != nil {
		return w, err
	}
	if err := g.refill(b.pool, k); err != nil {
		return w, err
	}
	in.Region, in.Addr = r, r.Start()+vm.Addr(off)
	return w, nil
}

// moveIn completes input into the cached region prepared for an
// emulated move, weak move or emulated weak move: check the region is
// still there, release the held pages, swap staged frames in (pooled
// buffering; otherwise the payload is already in the region's pages),
// reinstate access (emulated move) and mark the region moved in. It
// returns the bytes swapped.
func (g *Genie) moveIn(in *InputOp, st *staging) (w vmWork, err error) {
	as, n := in.proc.as, in.N
	r, err := g.checkRegion(in.proc, in.region, &in.src.ownRef)
	if err != nil {
		st.release()
		return w, err
	}
	in.src.unhold()
	off := 0
	if st.buf != nil {
		off = st.buf.off
		w, err = g.swapIn(as, r.Start(), n, st.buf, true)
		g.stats.SwappedPages += uint64(w.swapped / g.pageSize())
		if err != nil {
			return w, err
		}
	}
	if in.Sem == EmulatedMove {
		as.Reinstate(r)
	}
	if err := r.MarkMovedIn(); err != nil {
		return w, err
	}
	in.Region, in.Addr = r, r.Start()+vm.Addr(off)
	return w, nil
}

// stackFrames bounds the frame runs swapIn tracks on the stack: a
// MaxFrame datagram at any page offset spans 17 pages of 4 KB.
const stackFrames = 17
