// Package analytic is the closed-form fast path of the harness: it
// evaluates the end-to-end latency and CPU cost of one datagram
// transfer directly from the cost model, without running the
// discrete-event simulation.
//
// The paper's Section 8 model says end-to-end latency is base latency
// plus the sum of the critical-path data-passing operation costs. The
// simulator realizes that model event by event; this package evaluates
// it in closed form over the same plan the simulator charges
// (core.PlanTransfer: every charge set of Tables 2-4, the
// checksum-applicability rule and the short-data conversion):
//
//	latency = output-prepare charges     (sender CPU before the wire)
//	        + wire serialization         (BasePerByte x frame bytes)
//	        + fixed base latency         (BaseFixedHW + BaseFixedOS)
//	        + receiver ready+dispose     (the scheme/semantics charges)
//
// What stays here is validation and timing: wire serialization, base
// latency and the fold order, including the per-set subtotals the
// simulator adds as units, so on fault-free single-datagram points the
// evaluator reproduces the simulated Measurement bit for bit. The
// package's tests enforce that equivalence point for point against the
// simulator, on fixed grids over every platform/network model and on
// drawn points (FuzzEvaluateMatchesSimulation).
//
// The evaluator covers exactly the regime of experiments.Measure: one
// datagram on a fresh (or Reset) two-host testbed, no fault injection.
// Everything else (back-to-back traffic, chaos runs, traces) still needs
// the simulator.
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
	var store [24]core.Charge
	plan, err := core.PlanTransfer(store[:0], cfg, p.Scheme, p.Sem, p.Length, p.DevOff, p.AppOffset%ps, ps)
	if err != nil {
		return Estimate{}, err
	}

	// The receiver posts its input at t=0; those charges overlap the
	// sender and the network, costing CPU but no latency.
	var rxCPU, txCPU float64
	plan.InReady.Total(m, &rxCPU)
	plan.InPrepare.Total(m, &rxCPU)

	// The sender prepares, the frame serializes onto the wire, and the
	// transmit dispose runs once the last cell has left: CPU only.
	var now sim.Time
	now = now.Add(plan.OutPrepare.Total(m, &txCPU))
	busyUntil := now.Add(sim.Duration(m.BasePerByte * float64(plan.Frame)))
	plan.OutDispose.Total(m, &txCPU)
	deliver := busyUntil.Add(sim.Duration(m.Base().Fixed))

	// At arrival the ready and dispose sets bear latency, each folded as
	// its own subtotal; the deferred deallocation costs CPU only.
	rxLat := plan.Ready.Total(m, &rxCPU)
	rxLat += plan.Dispose.Total(m, &rxCPU)
	plan.Dealloc.Total(m, &rxCPU)
	done := deliver.Add(rxLat)

	// Overlapped per-datagram CPU work (Figure 4): cell reassembly and
	// interrupt handling, added as one term exactly as in core.
	cells := (plan.Frame + cost.CellPayload - 1) / cost.CellPayload
	rxCPU += m.PerCellCPU*float64(cells) + m.FixedKernelCPU

	return Estimate{
		Sem:       p.Sem,
		Bytes:     p.Length,
		LatencyUS: done.Sub(0).Micros(),
		RxCPUUS:   rxCPU,
		TxCPUUS:   txCPU,
	}, nil
}
