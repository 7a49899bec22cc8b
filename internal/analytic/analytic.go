// Package analytic is the closed-form fast path of the harness: it
// evaluates the end-to-end latency and CPU cost of one datagram
// transfer directly from the cost model, without running the
// discrete-event simulation.
//
// The paper's Section 8 model says end-to-end latency is base latency
// plus the sum of the critical-path data-passing operation costs. The
// simulator realizes that model event by event; this package evaluates
// it in closed form by replaying the exact charge sequences of the
// simulated data path (core's Tables 2-4 implementations) as arithmetic:
//
//	latency = output-prepare charges     (sender CPU before the wire)
//	        + wire serialization         (BasePerByte x frame bytes)
//	        + fixed base latency         (BaseFixedHW + BaseFixedOS)
//	        + receiver ready+dispose     (the scheme/semantics charges)
//
// Charge lists, clamping, and floating-point fold order replicate the
// simulation exactly — including the per-chargeSet subtotals the
// simulator adds as units — so on fault-free single-datagram points the
// evaluator reproduces the simulated Measurement bit for bit. The
// package's tests and experiments.BigSweep enforce that equivalence
// point-for-point against seeded simulation spot-checks.
//
// The evaluator covers exactly the regime of experiments.Measure: one
// datagram on a fresh (or Reset) two-host testbed, no fragmentation, no
// fault injection. Everything else (back-to-back traffic, chaos runs,
// traces) still needs the simulator.
package analytic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Point identifies one transfer configuration, mirroring the knobs of
// experiments.Setup plus the swept semantics and length.
type Point struct {
	// Model prices operations and the link; nil means cost.Baseline().
	Model *cost.Model
	// Scheme is the receiver's device input buffering architecture.
	Scheme netsim.InputBuffering
	// Sem is the buffering semantics of the transfer.
	Sem core.Semantics
	// DevOff is the device payload placement offset (pooled buffering).
	DevOff int
	// AppOffset is the receiving application buffer's page offset.
	AppOffset int
	// Length is the datagram payload length in bytes.
	Length int
	// Genie overrides framework tunables (zero value: paper defaults).
	Genie core.Config
}

// Estimate is the closed-form counterpart of experiments.Measurement:
// the same latency and CPU numbers, with no operation records.
type Estimate struct {
	Sem       core.Semantics
	Bytes     int
	LatencyUS float64 // end-to-end latency
	RxCPUUS   float64 // receiver CPU busy time for the datagram
	TxCPUUS   float64 // sender CPU busy time
}

// Utilization is the receiver CPU utilization during the transfer.
func (e Estimate) Utilization() float64 {
	if e.LatencyUS <= 0 {
		return 0
	}
	return e.RxCPUUS / e.LatencyUS
}

// ThroughputMbps is the single-datagram equivalent throughput.
func (e Estimate) ThroughputMbps() float64 {
	if e.LatencyUS <= 0 {
		return 0
	}
	return float64(e.Bytes) * 8 / e.LatencyUS
}

// charge mirrors core's internal charge: one primitive operation
// applied to a byte count.
type charge struct {
	op    cost.Op
	bytes int
}

// chargeTotal replicates core's chargeSet arithmetic: each charge's
// cost is clamped at zero, folded into the set subtotal, and added to
// the CPU accumulator individually — the same floating-point order the
// simulator uses, so totals agree bit for bit.
func chargeTotal(m *cost.Model, charges []charge, cpu *float64) sim.Duration {
	var total sim.Duration
	for _, c := range charges {
		d := m.Cost(c.op, c.bytes)
		if d < 0 {
			d = 0 // the copyin fit's negative intercept is clamped
		}
		total += d
		*cpu += d.Micros()
	}
	return total
}

// checksumApplies mirrors core's rule: checksumming covers copy and
// emulated copy semantics over early-demultiplexed devices; any other
// combination with a checksum mode configured is refused.
func checksumApplies(cfg core.Config, sem core.Semantics, scheme netsim.InputBuffering) (bool, error) {
	if cfg.Checksum == core.ChecksumNone {
		return false, nil
	}
	if sem != core.Copy && sem != core.EmulatedCopy {
		return false, core.ErrChecksumUnsupported
	}
	if scheme != netsim.EarlyDemux {
		return false, core.ErrChecksumUnsupported
	}
	return true, nil
}

// effectiveOutputSem applies the short-data conversion of Section 6:
// emulated copy and emulated share convert to copy below their
// thresholds.
func effectiveOutputSem(cfg core.Config, sem core.Semantics, length int) core.Semantics {
	switch {
	case sem == core.EmulatedCopy && length < cfg.EmCopyOutputThreshold:
		return core.Copy
	case sem == core.EmulatedShare && length < cfg.EmShareOutputThreshold:
		return core.Copy
	}
	return sem
}

// Evaluate computes the transfer outcome for a point in closed form.
// The errors mirror the simulated path: invalid semantics or lengths
// and unsupported checksum combinations fail exactly where (and with
// the same sentinel errors as) core.Input/core.Output would.
func Evaluate(p Point) (Estimate, error) {
	m := p.Model
	if m == nil {
		m = cost.Baseline()
	}
	cfg := p.Genie
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	ps := m.Platform.PageSize

	if !p.Sem.Valid() {
		return Estimate{}, fmt.Errorf("%w: %d", core.ErrBadSemantics, int(p.Sem))
	}
	if p.Length <= 0 || p.Length > netsim.MaxFrame {
		return Estimate{}, fmt.Errorf("%w: length %d", core.ErrBadBuffer, p.Length)
	}
	if p.DevOff < 0 {
		return Estimate{}, fmt.Errorf("analytic: negative device offset %d", p.DevOff)
	}
	switch p.Scheme {
	case netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering:
	default:
		return Estimate{}, fmt.Errorf("analytic: unknown buffering %d", p.Scheme)
	}

	// Input posts first (as in Testbed.Transfer) and validates the
	// posted semantics against the checksum mode.
	if _, err := checksumApplies(cfg, p.Sem, p.Scheme); err != nil {
		return Estimate{}, err
	}
	eff := effectiveOutputSem(cfg, p.Sem, p.Length)
	withChecksum, err := checksumApplies(cfg, eff, p.Scheme)
	if err != nil {
		return Estimate{}, err
	}

	var rxCPU, txCPU float64
	L := p.Length
	n := L // in.N = min(pkt.Length, Want) = length in the single-datagram regime

	// --- Receiver: prepare-time charges at post time (t=0). Ready-time
	// buffer allocation is a separate (zero-cost) charge set, as in core.
	appOff := p.AppOffset % ps
	switch p.Sem {
	case core.Copy, core.EmulatedCopy, core.Move:
		if p.Scheme == netsim.EarlyDemux {
			chargeTotal(m, []charge{{cost.BufAllocate, L}}, &rxCPU)
		}
	case core.Share:
		chargeTotal(m, []charge{{cost.Reference, L}, {cost.Wire, L}}, &rxCPU)
	case core.EmulatedShare:
		chargeTotal(m, []charge{{cost.Reference, L}}, &rxCPU)
	case core.EmulatedMove, core.EmulatedWeakMove:
		// A fresh testbed always allocates the cached region.
		chargeTotal(m, []charge{{cost.RegionCreate, 0}, {cost.Reference, L}}, &rxCPU)
	case core.WeakMove:
		chargeTotal(m, []charge{{cost.RegionCreate, 0}, {cost.Reference, L}, {cost.Wire, L}}, &rxCPU)
	}

	// --- Sender: output prepare charges (Table 2), then transmit.
	var outPrep, outDispose []charge
	switch eff {
	case core.Copy:
		outPrep = []charge{{cost.BufAllocate, L}, {cost.Copyin, L}}
		if withChecksum {
			if cfg.Checksum == core.ChecksumIntegrated {
				outPrep = []charge{{cost.BufAllocate, L}, {cost.ChecksumCopy, L}}
			} else {
				outPrep = append(outPrep, charge{cost.ChecksumRead, L})
			}
		}
		outDispose = []charge{{cost.BufDeallocate, L}}
	case core.EmulatedCopy:
		outPrep = []charge{{cost.Reference, L}, {cost.ReadOnly, L}}
		if withChecksum {
			outPrep = append(outPrep, charge{cost.ChecksumRead, L})
		}
		outDispose = []charge{{cost.Unreference, L}}
	case core.Share:
		outPrep = []charge{{cost.Reference, L}, {cost.Wire, L}}
		outDispose = []charge{{cost.Unwire, L}, {cost.Unreference, L}}
	case core.EmulatedShare:
		outPrep = []charge{{cost.Reference, L}}
		outDispose = []charge{{cost.Unreference, L}}
	case core.Move, core.EmulatedMove, core.WeakMove, core.EmulatedWeakMove:
		outPrep = []charge{{cost.Reference, L}}
		if eff == core.Move || eff == core.WeakMove {
			outPrep = append(outPrep, charge{cost.Wire, L})
		}
		outPrep = append(outPrep, charge{cost.RegionMarkOut, 0})
		if eff == core.Move || eff == core.EmulatedMove {
			outPrep = append(outPrep, charge{cost.Invalidate, L})
		}
		if eff == core.Move || eff == core.WeakMove {
			outDispose = append(outDispose, charge{cost.Unwire, L})
		}
		outDispose = append(outDispose, charge{cost.Unreference, L})
		switch eff {
		case core.Move:
			outDispose = append(outDispose, charge{cost.RegionRemove, 0})
		default: // EmulatedMove, WeakMove, EmulatedWeakMove
			outDispose = append(outDispose, charge{cost.RegionMarkOut, 0})
		}
	}
	prepDur := chargeTotal(m, outPrep, &txCPU)

	// --- Wire: one AAL5 frame, trailer included when checksumming.
	pktLen := L
	if withChecksum {
		pktLen += 2 // checksum trailer travels with the payload
	}
	var now sim.Time // output issued at t=0 on a fresh testbed
	now = now.Add(prepDur)
	wire := sim.Duration(m.BasePerByte * float64(pktLen))
	busyUntil := now.Add(wire)
	// Transmit dispose runs at busyUntil: CPU only, never latency.
	chargeTotal(m, outDispose, &txCPU)
	base := m.Base()
	deliver := busyUntil.Add(sim.Duration(base.Fixed))

	// --- Receiver: ready and dispose charges at arrival (Tables 3, 4,
	// and Section 6.2.3), composed per-chargeSet as the simulator does.
	var rxLat sim.Duration
	switch p.Scheme {
	case netsim.EarlyDemux:
		rxLat, err = earlyDemuxDispose(m, cfg, p.Sem, n, appOff, ps, &rxCPU)
	case netsim.Pooled:
		rxLat, err = pooledDispose(m, cfg, p.Sem, n, p.DevOff, appOff, ps, &rxCPU)
	case netsim.OutboardBuffering:
		rxLat, err = outboardDispose(m, p.Sem, n, ps, &rxCPU)
	}
	if err != nil {
		return Estimate{}, err
	}
	done := deliver.Add(rxLat)

	// Overlapped per-datagram CPU work (Figure 4): cell reassembly and
	// interrupt handling, added as one term exactly as in core.
	cells := (pktLen + cost.CellPayload - 1) / cost.CellPayload
	rxCPU += m.PerCellCPU*float64(cells) + m.FixedKernelCPU

	return Estimate{
		Sem:       p.Sem,
		Bytes:     L,
		LatencyUS: done.Sub(0).Micros(),
		RxCPUUS:   rxCPU,
		TxCPUUS:   txCPU,
	}, nil
}

// earlyDemuxDispose replicates the charge sets of core's dispose cases
// for a payload staged by early demultiplexing (Table 3). The returned
// duration is the latency-bearing part; the deferred buffer
// deallocations charge CPU only.
func earlyDemuxDispose(m *cost.Model, cfg core.Config, sem core.Semantics, n, appOff, ps int, cpu *float64) (sim.Duration, error) {
	switch sem {
	case core.Copy:
		var ch []charge
		switch cfg.Checksum {
		case core.ChecksumSeparate:
			ch = []charge{{cost.ChecksumRead, n}, {cost.Copyout, n}}
		case core.ChecksumIntegrated:
			ch = []charge{{cost.ChecksumCopy, n}}
		default:
			ch = []charge{{cost.Copyout, n}}
		}
		lat := chargeTotal(m, ch, cpu)
		chargeTotal(m, []charge{{cost.BufDeallocate, n}}, cpu)
		return lat, nil

	case core.EmulatedCopy:
		// System input alignment: the aligned buffer starts at the
		// application buffer's page offset, so swapping is possible.
		kbufOff := 0
		if cfg.SystemAlignment {
			kbufOff = appOff
		}
		var ch []charge
		if cfg.Checksum != core.ChecksumNone {
			ch = append(ch, charge{cost.ChecksumRead, n})
		}
		ch = append(ch, emcopyCharges(cfg, n, kbufOff, appOff, ps)...)
		lat := chargeTotal(m, ch, cpu)
		chargeTotal(m, []charge{{cost.BufDeallocate, n}}, cpu)
		return lat, nil

	case core.Share:
		return chargeTotal(m, []charge{{cost.Unwire, n}, {cost.Unreference, n}}, cpu), nil

	case core.EmulatedShare:
		return chargeTotal(m, []charge{{cost.Unreference, n}}, cpu), nil

	case core.Move:
		zeroed := 0
		if tail := n % ps; tail != 0 {
			zeroed = ps - tail
		}
		return chargeTotal(m, []charge{
			{cost.RegionCreate, 0}, {cost.ZeroComplete, zeroed},
			{cost.RegionFill, n}, {cost.RegionMap, n}, {cost.RegionMarkIn, 0},
		}, cpu), nil

	case core.EmulatedMove:
		return chargeTotal(m, []charge{{cost.RegionCheckUnrefReinstateMarkIn, n}}, cpu), nil

	case core.WeakMove:
		return chargeTotal(m, []charge{
			{cost.RegionCheck, 0}, {cost.Unwire, n}, {cost.Unreference, n}, {cost.RegionMarkIn, 0},
		}, cpu), nil

	case core.EmulatedWeakMove:
		return chargeTotal(m, []charge{{cost.RegionCheckUnrefMarkIn, n}}, cpu), nil
	}
	return 0, fmt.Errorf("%w: %v", core.ErrBadSemantics, sem)
}

// pooledDispose replicates core's dispose cases for a payload staged
// in pooled overlay pages (Table 4): the ready charges (overlay
// allocation) and the dispose charges both contribute to latency, added
// as two chargeSet subtotals.
func pooledDispose(m *cost.Model, cfg core.Config, sem core.Semantics, n, devOff, appOff, ps int, cpu *float64) (sim.Duration, error) {
	lat := chargeTotal(m, []charge{
		{cost.OverlayAllocate, n}, {cost.Overlay, n},
	}, cpu)

	var ch []charge
	switch sem {
	case core.Copy:
		ch = []charge{{cost.Copyout, n}, {cost.OverlayDeallocate, n}}

	case core.EmulatedCopy:
		ch = append(emcopyCharges(cfg, n, devOff, appOff, ps), charge{cost.OverlayDeallocate, n})

	case core.Share, core.EmulatedShare:
		if sem == core.Share {
			ch = append(ch, charge{cost.Unwire, n})
		}
		ch = append(ch, charge{cost.Unreference, n})
		ch = append(ch, emcopyCharges(cfg, n, devOff, appOff, ps)...)
		ch = append(ch, charge{cost.OverlayDeallocate, n})

	case core.Move:
		zeroed := 0
		if devOff > 0 {
			zeroed += devOff
		}
		if end := (devOff + n) % ps; end != 0 {
			zeroed += ps - end
		}
		ch = []charge{
			{cost.RegionCreate, 0}, {cost.ZeroComplete, zeroed},
			{cost.RegionFillOverlayRefill, n}, {cost.RegionMap, n}, {cost.RegionMarkIn, 0},
			{cost.OverlayDeallocate, n},
		}

	case core.EmulatedMove, core.WeakMove, core.EmulatedWeakMove:
		if sem == core.WeakMove {
			ch = append(ch, charge{cost.Unwire, n})
		}
		ch = append(ch, charge{cost.RegionCheck, 0}, charge{cost.Unreference, n},
			charge{cost.Swap, n}, charge{cost.RegionMarkIn, 0})
		ch = append(ch, charge{cost.OverlayDeallocate, n})

	default:
		return 0, fmt.Errorf("%w: %v", core.ErrBadSemantics, sem)
	}
	return lat + chargeTotal(m, ch, cpu), nil
}

// outboardDispose replicates core's stageOutboard and dispose cases for
// a payload held in outboard memory (Section 6.2.3).
func outboardDispose(m *cost.Model, sem core.Semantics, n, ps int, cpu *float64) (sim.Duration, error) {
	var ch []charge
	switch sem {
	case core.Copy:
		ch = []charge{{cost.BufAllocate, n}, {cost.OutboardDMA, n}, {cost.Copyout, n}}

	case core.EmulatedCopy:
		ch = []charge{{cost.Reference, n}, {cost.OutboardDMA, n}, {cost.Unreference, n}}

	case core.Share:
		ch = []charge{{cost.OutboardDMA, n}, {cost.Unwire, n}, {cost.Unreference, n}}

	case core.EmulatedShare:
		ch = []charge{{cost.OutboardDMA, n}, {cost.Unreference, n}}

	case core.Move:
		zeroed := 0
		if tail := n % ps; tail != 0 {
			zeroed = ps - tail
		}
		ch = []charge{
			{cost.BufAllocate, n}, {cost.OutboardDMA, n},
			{cost.RegionCreate, 0}, {cost.ZeroComplete, zeroed},
			{cost.RegionFill, n}, {cost.RegionMap, n}, {cost.RegionMarkIn, 0},
		}

	case core.EmulatedMove:
		ch = []charge{{cost.OutboardDMA, n}, {cost.RegionCheckUnrefReinstateMarkIn, n}}

	case core.WeakMove:
		ch = []charge{{cost.OutboardDMA, n}, {cost.RegionCheck, 0}, {cost.Unwire, n},
			{cost.Unreference, n}, {cost.RegionMarkIn, 0}}

	case core.EmulatedWeakMove:
		ch = []charge{{cost.OutboardDMA, n}, {cost.RegionCheckUnrefMarkIn, n}}

	default:
		return 0, fmt.Errorf("%w: %v", core.ErrBadSemantics, sem)
	}
	lat := chargeTotal(m, ch, cpu)
	// Deferred staging-buffer deallocation: CPU only.
	chargeTotal(m, []charge{{cost.BufDeallocate, n}}, cpu)
	return lat, nil
}

// emcopyCharges replicates core's emulated-copy dispose arithmetic
// (Section 5.2, Figure 2): per overlapping page, a full fill swaps, a
// fill at or above the reverse-copyout threshold completes from the
// application page and swaps, and a short fill copies out. Misaligned
// buffers copy everything.
func emcopyCharges(cfg core.Config, n, frameOff, appOff, ps int) []charge {
	if frameOff != appOff {
		return []charge{{cost.Copyout, n}}
	}
	a := appOff // data occupies [a, a+n) in page-offset space
	var swapped, copied, reversed int
	for pageStart := 0; pageStart < a+n; pageStart += ps {
		dataStart := max(a, pageStart)
		dataEnd := min(a+n, pageStart+ps)
		d := dataEnd - dataStart
		switch {
		case d == ps:
			swapped += ps
		case d >= cfg.ReverseCopyoutThreshold:
			head := dataStart - pageStart
			tail := pageStart + ps - dataEnd
			swapped += ps
			reversed += head + tail
		default:
			copied += d
		}
	}
	var ch []charge
	if swapped > 0 {
		ch = append(ch, charge{cost.Swap, swapped})
	}
	if reversed > 0 {
		ch = append(ch, charge{cost.Copyout, reversed})
	}
	if copied > 0 {
		ch = append(ch, charge{cost.Copyout, copied})
	}
	return ch
}
