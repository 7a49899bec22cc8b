package genie

import (
	"repro/internal/analytic"
	"repro/internal/cost"
)

// LatencyEstimate is the closed-form prediction for one transfer: the
// same latency and CPU numbers a simulated Transfer would report (the
// analytic package's validation pins the two paths bit-for-bit on the
// single-datagram regime), plus ThroughputMbps and Utilization helpers.
type LatencyEstimate = analytic.Estimate

// EstimatePoint describes one transfer for Estimate. The zero value is
// the paper's default configuration: Micron P166 on OC-3, early
// demultiplexing, aligned buffers, default tunables.
type EstimatePoint struct {
	// Platform is the host machine model (zero: Micron P166).
	Platform Platform
	// Network is the link technology (zero: OC3).
	Network Net
	// Buffering is the receiving adapter's input architecture.
	Buffering Buffering
	// DeviceOffset is the payload placement offset within the first
	// input page (see WithDeviceOffset).
	DeviceOffset int
	// AppOffset is the receiving application buffer's offset within its
	// page (application input alignment: AppOffset == DeviceOffset
	// makes swapping possible for the emulated-copy family).
	AppOffset int
	// Config overrides the framework tunables (zero: DefaultConfig).
	Config Config
}

// Estimate predicts the end-to-end latency and per-host CPU cost of
// transferring length bytes under sem, without running the simulator.
// It evaluates the paper's Section 8 model — base latency plus the
// critical path's data-passing operation costs — in closed form,
// several hundred times faster than a simulated Transfer; geniebench
// bigsweep continuously validates the two paths against each other.
//
// Estimate covers the regime of a single fault-free datagram on a
// fresh testbed. Fragmented (MTU), faulted, or back-to-back traffic
// still needs a simulated Network.
func Estimate(p EstimatePoint, sem Semantics, length int) (LatencyEstimate, error) {
	var model *cost.Model
	if p.Platform.Name != "" || p.Network.Name != "" {
		plat, nt := p.Platform, p.Network
		if plat.Name == "" {
			plat = cost.MicronP166
		}
		if nt.Name == "" {
			nt = cost.CreditNetOC3
		}
		model = cost.NewModel(plat, nt)
	}
	return analytic.Evaluate(analytic.Point{
		Model:     model,
		Scheme:    p.Buffering,
		Sem:       sem,
		DevOff:    p.DeviceOffset,
		AppOffset: p.AppOffset,
		Length:    length,
		Genie:     p.Config,
	})
}
