package core

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Every charge decision of the data path is made once, here. A plan is
// the list of terms of the paper's Section 8 sum for one operation: the
// charge sets each stage applies, in order, computed from the decision
// inputs alone — semantics, input scheme, length, staging and
// application page offsets, region-cache hit or miss, checksum mode and
// Config — before any VM work. Execution does the VM work, checks what
// it did against the plan's vmWork, and charges the plan;
// internal/analytic folds the same plans in closed form. The *Ops
// tables in tables.go are the independent reference both are pinned
// against.

// Charge is one term of a plan: a primitive operation applied to a
// byte count.
type Charge struct {
	Op    cost.Op
	Bytes int
}

// cost prices c under m. The copyin fit's negative intercept is
// clamped at zero.
func (c Charge) cost(m *cost.Model) sim.Duration {
	d := m.Cost(c.Op, c.Bytes)
	if d < 0 {
		d = 0
	}
	return d
}

// Charges is one charge set of a plan, in charge order.
type Charges []Charge

// Total folds the set as the simulator charges it: each charge's cost
// is added to the set total and, individually, to the CPU accumulator,
// so totals agree with a simulated run bit for bit.
func (cs Charges) Total(m *cost.Model, cpu *float64) sim.Duration {
	var total sim.Duration
	for _, c := range cs {
		d := c.cost(m)
		total += d
		*cpu += d.Micros()
	}
	return total
}

// ErrPlanMismatch reports VM work that differs from the operation's
// plan: the charges would no longer describe what the data path did.
var ErrPlanMismatch = errors.New("core: plan mismatch")

// vmWork counts what the VM steps of one operation do, or what its plan
// says they must: bytes swapped, reverse-copied (completed from the
// application page before a swap), copied out and zero-completed, and
// pages flipped or donated out of the page cache.
type vmWork struct {
	swapped, reversed, copied, zeroed, flipped int
}

// check compares the work done with the plan w and fails naming the op
// and the first count that differs.
func (w vmWork) check(op string, sem Semantics, done vmWork) error {
	plan := [...]int{w.swapped, w.reversed, w.copied, w.zeroed, w.flipped}
	did := [...]int{done.swapped, done.reversed, done.copied, done.zeroed, done.flipped}
	for i, count := range [...]string{"bytes swapped", "bytes reverse-copied", "bytes copied out", "bytes zero-completed", "pages flipped"} {
		if plan[i] != did[i] {
			return fmt.Errorf("%w: %v %s: %s planned %d, done %d", ErrPlanMismatch, sem, op, count, plan[i], did[i])
		}
	}
	return nil
}

// checksumApplies reports whether the checksum mode covers the
// semantics and input scheme: copy and emulated copy over
// early-demultiplexed devices. Any other combination with a mode
// configured is refused.
func checksumApplies(cfg Config, sem Semantics, scheme netsim.InputBuffering) (bool, error) {
	if cfg.Checksum == ChecksumNone {
		return false, nil
	}
	if sem != Copy && sem != EmulatedCopy || scheme != netsim.EarlyDemux {
		return false, ErrChecksumUnsupported
	}
	return true, nil
}

// outputSemantics applies the short-data conversion of Section 6: copy
// is very efficient for short data, so emulated copy and emulated share
// convert to it below their thresholds. The conversion is transparent:
// copy offers the same or stronger guarantees.
func (c Config) outputSemantics(sem Semantics, length int) Semantics {
	switch {
	case sem == EmulatedCopy && length < c.EmCopyOutputThreshold,
		sem == EmulatedShare && length < c.EmShareOutputThreshold:
		return Copy
	}
	return sem
}

// planHold appends the charges of holding n application bytes in place
// for a device: referenced, and wired under the non-emulated semantics.
func planHold(ch []Charge, sem Semantics, n int) []Charge {
	ch = append(ch, Charge{cost.Reference, n})
	if !sem.Emulated() {
		ch = append(ch, Charge{cost.Wire, n})
	}
	return ch
}

// planUnhold appends the charges of releasing n held bytes.
func planUnhold(ch []Charge, sem Semantics, n int) []Charge {
	if !sem.Emulated() {
		ch = append(ch, Charge{cost.Unwire, n})
	}
	return append(ch, Charge{cost.Unreference, n})
}

// planOutputPrepare appends Table 2's prepare charges for an output of
// segs under the effective semantics eff. Copy snapshots into one system
// buffer, folding an integrated checksum into the copyin. The other
// semantics hold every segment in place, TCOW-protecting it under
// emulated copy; the move family marks its one region moving out and,
// with strong integrity, invalidates the application's access. A
// separate checksum pass comes last: a read-only pass, for emulated
// copy over the TCOW-protected, hence stable, pages.
func planOutputPrepare(ch []Charge, cfg Config, eff Semantics, checksum bool, segs []Segment) []Charge {
	total := 0
	for _, s := range segs {
		total += s.Len
	}
	if eff == Copy {
		copyin := cost.Copyin
		if checksum && cfg.Checksum == ChecksumIntegrated {
			copyin, checksum = cost.ChecksumCopy, false
		}
		ch = append(ch, Charge{cost.BufAllocate, total}, Charge{copyin, total})
	} else {
		for _, s := range segs {
			ch = planHold(ch, eff, s.Len)
			switch {
			case eff == EmulatedCopy:
				ch = append(ch, Charge{cost.ReadOnly, s.Len})
			case eff.SystemAllocated():
				ch = append(ch, Charge{cost.RegionMarkOut, 0})
				if !eff.WeakIntegrity() {
					ch = append(ch, Charge{cost.Invalidate, s.Len})
				}
			}
		}
	}
	if checksum {
		ch = append(ch, Charge{cost.ChecksumRead, total})
	}
	return ch
}

// planOutputDispose appends Table 2's dispose charges: copy frees its
// system buffer; the other semantics release every held segment, then
// move removes its region and the rest of the move family hide theirs
// for reuse.
func planOutputDispose(ch []Charge, eff Semantics, segs []Segment) []Charge {
	if eff == Copy {
		total := 0
		for _, s := range segs {
			total += s.Len
		}
		return append(ch, Charge{cost.BufDeallocate, total})
	}
	for _, s := range segs {
		ch = planUnhold(ch, eff, s.Len)
	}
	switch eff {
	case Move:
		ch = append(ch, Charge{cost.RegionRemove, 0})
	case EmulatedMove, WeakMove, EmulatedWeakMove:
		ch = append(ch, Charge{cost.RegionMarkOut, 0})
	}
	return ch
}

// planInput appends an input's posting-time charges (Table 3), first
// the ready set, then the prepare set. Early demultiplexing allocates
// copy's, emulated copy's and move's buffer before data arrives. The
// share family holds the application's pages in place, and the cached
// move family holds its region, allocated fresh on a region-cache miss
// (created).
func planInput(ch []Charge, scheme netsim.InputBuffering, sem Semantics, n int, created bool) (ready, prep []Charge) {
	ready = ch
	switch sem {
	case Copy, EmulatedCopy, Move:
		if scheme == netsim.EarlyDemux {
			ready = append(ready, Charge{cost.BufAllocate, n})
		}
		return ready, ready[len(ready):]
	}
	prep = ready[len(ready):]
	if created && sem.SystemAllocated() {
		prep = append(prep, Charge{cost.RegionCreate, 0})
	}
	return ready, planHold(prep, sem, n)
}

// receivePlan is the arrival half of an input's plan.
type receivePlan struct {
	ready   Charges // pooled overlay allocation: its own latency-bearing set
	dispose Charges // latency-bearing; outboard's staging charges come first
	dealloc Charges // the deferred staging-buffer deallocation: CPU only
	// verified is the prefix of dispose a failed checksum charges: up
	// to and including the verify charge (0: no checksum).
	verified int
	work     vmWork // what the dispose's VM steps must do
}

// planReceive plans the arrival of n bytes for an input (Tables 3 and 4,
// Section 6.2.3), staged at device offset devOff under pooled buffering,
// for an application buffer at page offset appOff.
//
// The payload waits in frames — the posted buffer (early demultiplexing:
// copy, emulated copy, move), overlay pages (pooled) or a fresh kernel
// buffer (outboard copy and move) — or in the application's own held
// pages. Outboard DMAs from adapter memory first, into emulated copy's
// freshly held buffer where there is no kernel buffer. Dispose then
// copies out (copy), passes frames by emulated copy (emulated copy and,
// from overlay pages, the share family), maps the frames in as a fresh
// region (move) or completes the cached region (the rest of the move
// family: fused single operations in place under the emulated variants,
// a whole-page swap from overlay pages). A checksum is verified first.
func planReceive(ch []Charge, cfg Config, scheme netsim.InputBuffering, sem Semantics, n, devOff, appOff, ps int) receivePlan {
	var rp receivePlan
	if scheme == netsim.Pooled {
		rp.ready = append(ch, Charge{cost.OverlayAllocate, n}, Charge{cost.Overlay, n})
		ch = rp.ready[len(rp.ready):]
	}
	frames, off, held := false, 0, sem != Copy && sem != EmulatedCopy && sem != Move
	switch scheme {
	case netsim.EarlyDemux:
		frames = !held
		if sem == EmulatedCopy && cfg.SystemAlignment {
			off = appOff
		}
	case netsim.Pooled:
		frames, off = true, devOff
	case netsim.OutboardBuffering:
		switch sem {
		case Copy, Move:
			frames = true
			ch = append(ch, Charge{cost.BufAllocate, n})
		case EmulatedCopy:
			held = true
			ch = planHold(ch, sem, n)
		}
		ch = append(ch, Charge{cost.OutboardDMA, n})
	}
	checksum, _ := checksumApplies(cfg, sem, scheme)
	switch sem {
	case Copy:
		switch {
		case checksum && cfg.Checksum == ChecksumIntegrated:
			ch = append(ch, Charge{cost.ChecksumCopy, n})
			rp.verified = len(ch)
		case checksum:
			ch = append(ch, Charge{cost.ChecksumRead, n})
			rp.verified = len(ch)
			fallthrough
		default:
			ch = append(ch, Charge{cost.Copyout, n})
		}
	case EmulatedCopy, Share, EmulatedShare:
		if checksum {
			ch = append(ch, Charge{cost.ChecksumRead, n})
			rp.verified = len(ch)
		}
		if held {
			ch = planUnhold(ch, sem, n)
		}
		if frames {
			ch, rp.work = planEmcopy(ch, cfg, n, off, appOff, ps)
		}
	case Move:
		if off > 0 {
			rp.work.zeroed += off
		}
		if end := (off + n) % ps; end != 0 {
			rp.work.zeroed += ps - end
		}
		fill := cost.RegionFill
		if scheme == netsim.Pooled {
			fill = cost.RegionFillOverlayRefill
		}
		ch = append(ch, Charge{cost.RegionCreate, 0}, Charge{cost.ZeroComplete, rp.work.zeroed},
			Charge{fill, n}, Charge{cost.RegionMap, n}, Charge{cost.RegionMarkIn, 0})
	default: // EmulatedMove, WeakMove, EmulatedWeakMove
		switch {
		case !frames && sem == EmulatedMove:
			ch = append(ch, Charge{cost.RegionCheckUnrefReinstateMarkIn, n})
		case !frames && sem == EmulatedWeakMove:
			ch = append(ch, Charge{cost.RegionCheckUnrefMarkIn, n})
		case !frames:
			ch = append(planUnhold(append(ch, Charge{cost.RegionCheck, 0}), sem, n), Charge{cost.RegionMarkIn, 0})
		default:
			// Table 4 unwires a pooled weak move before the region
			// check; every overlay page is swapped in whole.
			if sem == WeakMove {
				ch = append(ch, Charge{cost.Unwire, n})
			}
			ch = append(ch, Charge{cost.RegionCheck, 0}, Charge{cost.Unreference, n},
				Charge{cost.Swap, n}, Charge{cost.RegionMarkIn, 0})
			rp.work.swapped = (off + n + ps - 1) / ps * ps
		}
	}
	if scheme == netsim.Pooled {
		ch = append(ch, Charge{cost.OverlayDeallocate, n})
	}
	rp.dispose = ch
	if scheme == netsim.OutboardBuffering || frames && scheme == netsim.EarlyDemux && sem != Move {
		rp.dealloc = append(ch[len(ch):], Charge{cost.BufDeallocate, n})
	}
	return rp
}

// planEmcopy appends the charges of passing n bytes staged at page
// offset frameOff to an application buffer at page offset appOff with
// emulated copy semantics (Section 5.2, Figure 2), and returns the work
// it takes. Misaligned buffers copy everything out. Aligned, each
// overlapping page is swapped when full; a partial page filled to the
// reverse copyout threshold is completed from the application page and
// swapped, and a shorter one is copied out.
func planEmcopy(ch []Charge, cfg Config, n, frameOff, appOff, ps int) ([]Charge, vmWork) {
	var w vmWork
	if frameOff != appOff {
		w.copied = n
		return append(ch, Charge{cost.Copyout, n}), w
	}
	for page := 0; page < appOff+n; page += ps {
		start, end := max(appOff, page), min(appOff+n, page+ps)
		switch d := end - start; {
		case d == ps:
			w.swapped += ps
		case d >= cfg.ReverseCopyoutThreshold:
			w.swapped += ps
			w.reversed += ps - d
		default:
			w.copied += d
		}
	}
	for _, c := range [...]Charge{{cost.Swap, w.swapped}, {cost.Copyout, w.reversed}, {cost.Copyout, w.copied}} {
		if c.Bytes > 0 {
			ch = append(ch, c)
		}
	}
	return ch, w
}

// planFileRead appends the prepare charges of Storage.FileRead, the
// receive side with the page cache as the staging place, for a read of
// n bytes into an application buffer at page offset appOff, and returns
// the work they take. Copy copies out of the cache. Emulated copy flips
// the whole pages of a page-aligned destination (Swap) and copies out
// the rest. The share family reads the device straight into held
// application pages. The move family donates the cache pages to a fresh
// region (Swap), wiring them for the fill under the non-emulated
// variants. Region state transitions charge no bytes.
func planFileRead(ch []Charge, sem Semantics, n, appOff, ps int) ([]Charge, vmWork) {
	var w vmWork
	switch sem {
	case Copy:
		ch = append(ch, Charge{cost.Copyout, n})
	case EmulatedCopy:
		if appOff == 0 {
			w.flipped = n / ps
			w.swapped = w.flipped * ps
		}
		if w.swapped > 0 {
			ch = append(ch, Charge{cost.Swap, w.swapped})
		}
		if tail := n - w.swapped; tail > 0 {
			ch = append(ch, Charge{cost.Copyout, tail})
		}
	case Share, EmulatedShare:
		ch = planHold(ch, sem, n)
	default: // the move family
		w.flipped = (n + ps - 1) / ps
		ch = append(ch, Charge{cost.RegionCreate, 0}, Charge{cost.Swap, n}, Charge{cost.RegionMarkIn, 0})
		if !sem.Emulated() {
			ch = append(ch, Charge{cost.Wire, n})
		}
	}
	return ch, w
}

// planFileReadDispose appends FileRead's dispose charges: the share
// family releases its held pages, and the non-emulated move family
// unwires its region after the fill.
func planFileReadDispose(ch []Charge, sem Semantics, n int) []Charge {
	switch {
	case sem == Share || sem == EmulatedShare:
		return planUnhold(ch, sem, n)
	case sem.SystemAllocated() && !sem.Emulated():
		return append(ch, Charge{cost.Unwire, n})
	}
	return ch
}

// TransferPlan is the plan of one datagram in experiments.Measure's
// regime: a fresh (or Reset) host pair, the input posted before the
// output, one frame, no faults.
type TransferPlan struct {
	Frame int // bytes on the wire: the payload and any checksum trailer

	OutPrepare, OutDispose  Charges // the sender's sets
	InReady, InPrepare      Charges // the receiver's sets at posting
	Ready, Dispose, Dealloc Charges // the receiver's sets at arrival
}

// PlanTransfer plans a transfer of length bytes under sem, from the
// sender's buffer to a receiving application buffer at page offset
// appOff, with the device placing payload at devOff (pooled). The sets
// are built in store's backing array as far as its capacity goes. The
// posted semantics is checked against the checksum mode first, as the
// input posts first, and a fresh host always allocates the cached
// region.
func PlanTransfer(store []Charge, cfg Config, scheme netsim.InputBuffering, sem Semantics, length, devOff, appOff, pageSize int) (TransferPlan, error) {
	if _, err := checksumApplies(cfg, sem, scheme); err != nil {
		return TransferPlan{}, err
	}
	eff := cfg.outputSemantics(sem, length)
	checksum, err := checksumApplies(cfg, eff, scheme)
	if err != nil {
		return TransferPlan{}, err
	}
	p := TransferPlan{Frame: length}
	if checksum {
		p.Frame += checksumTrailerLen
	}
	p.InReady, p.InPrepare = planInput(store, scheme, sem, length, true)
	seg := [1]Segment{{Len: length}}
	p.OutPrepare = planOutputPrepare(p.InPrepare[len(p.InPrepare):], cfg, eff, checksum, seg[:])
	p.OutDispose = planOutputDispose(p.OutPrepare[len(p.OutPrepare):], eff, seg[:])
	rp := planReceive(p.OutDispose[len(p.OutDispose):], cfg, scheme, sem, length, devOff, appOff, pageSize)
	p.Ready, p.Dispose, p.Dealloc = rp.ready, rp.dispose, rp.dealloc
	return p, nil
}
