package analytic_test

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/digest"
	"repro/internal/experiments"
	"repro/internal/netsim"
)

var allSchemes = []netsim.InputBuffering{
	netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering,
}

// allOffsets are the (device, application) placements the grids sweep.
var allOffsets = []struct{ dev, app int }{
	{0, 0},    // aligned at zero
	{24, 24},  // aligned at a nonzero offset
	{0, 24},   // misaligned: device at 0, app at 24
	{24, 0},   // misaligned the other way
	{4096, 0}, // page-sized device offset: unaligned under pooled
}

// allModels returns every platform of Table 5 on both networks, in
// platform order, OC-3 before OC-12.
func allModels() []*cost.Model {
	var models []*cost.Model
	for _, p := range cost.Platforms() {
		for _, nw := range []cost.Network{cost.CreditNetOC3, cost.CreditNetOC12} {
			models = append(models, cost.NewModel(p, nw))
		}
	}
	return models
}

func schemeName(s netsim.InputBuffering) string {
	switch s {
	case netsim.EarlyDemux:
		return "earlydemux"
	case netsim.Pooled:
		return "pooled"
	case netsim.OutboardBuffering:
		return "outboard"
	}
	return fmt.Sprintf("scheme%d", int(s))
}

// pointName names a point: model, scheme, semantics, offsets, length
// and checksum mode.
func pointName(p analytic.Point) string {
	model := "baseline"
	if p.Model != nil {
		model = p.Model.Platform.Name + "/" + p.Model.Net.Name
	}
	return fmt.Sprintf("%s/%s/%v/devoff=%d/appoff=%d/len=%d/ck=%d",
		model, schemeName(p.Scheme), p.Sem, p.DevOff, p.AppOffset, p.Length, p.Genie.Checksum)
}

// mismatch simulates p and compares the measurement with got and
// anErr, an estimate of p and its error. It returns "" when the two
// agree bit for bit (or fail together), and otherwise a description
// that names the point.
func mismatch(p analytic.Point, got analytic.Estimate, anErr error) string {
	s := experiments.Setup{Model: p.Model, Scheme: p.Scheme, DevOff: p.DevOff, AppOffset: p.AppOffset, Genie: p.Genie}
	m, simErr := experiments.Measure(s, p.Sem, p.Length)
	if (simErr != nil) != (anErr != nil) {
		return fmt.Sprintf("%s: simulated err %v, analytic err %v", pointName(p), simErr, anErr)
	}
	want := analytic.Estimate{Sem: m.Sem, Bytes: m.Bytes, LatencyUS: m.LatencyUS, RxCPUUS: m.RxCPUUS, TxCPUUS: m.TxCPUUS}
	if simErr == nil && got != want {
		return fmt.Sprintf("%s:\n  analytic  %+v\n  simulated %+v", pointName(p), got, want)
	}
	return ""
}

// comparePoint evaluates p and fails t unless the simulator agrees.
func comparePoint(t *testing.T, p analytic.Point) {
	t.Helper()
	got, err := analytic.Evaluate(p)
	if d := mismatch(p, got, err); d != "" {
		t.Error(d)
	}
}

// TestEvaluateMatchesSimulation is the self-validation harness: every
// (scheme, semantics, offsets, length) combination below runs through
// both the closed-form evaluator and the discrete-event simulation, and
// latency, receiver CPU and sender CPU must agree bit for bit.
func TestEvaluateMatchesSimulation(t *testing.T) {
	lengths := []int{1, 47, 48, 64, 166, 167, 280, 1000, 1466, 1666,
		2048, 2178, 4095, 4096, 4097, 8192, 9000, 16384, 61440, 65535}
	n := 0
	for _, scheme := range allSchemes {
		for _, off := range allOffsets {
			for _, sem := range core.AllSemantics() {
				for _, length := range lengths {
					comparePoint(t, analytic.Point{Scheme: scheme, Sem: sem, DevOff: off.dev, AppOffset: off.app, Length: length})
					n++
				}
			}
		}
	}
	t.Logf("compared %d points", n)
}

// TestEvaluateMatchesSimulationAcrossModels repeats a reduced sweep on
// every platform/network cost model at every offset pair, so platform
// scaling (page size, cache ratio, link rate) flows through the
// analytic path identically.
func TestEvaluateMatchesSimulationAcrossModels(t *testing.T) {
	lengths := []int{64, 167, 1666, 4096, 8192, 8193, 16384, 65535}
	n := 0
	for _, m := range allModels() {
		for _, scheme := range allSchemes {
			for _, off := range allOffsets {
				for _, sem := range core.AllSemantics() {
					for _, length := range lengths {
						comparePoint(t, analytic.Point{Model: m, Scheme: scheme, Sem: sem, DevOff: off.dev, AppOffset: off.app, Length: length})
						n++
					}
				}
			}
		}
	}
	t.Logf("compared %d points", n)
}

// TestEvaluateMatchesSimulationChecksum covers the checksum modes on
// the combinations that support them, and the error parity on the ones
// that do not.
func TestEvaluateMatchesSimulationChecksum(t *testing.T) {
	lengths := []int{64, 167, 1664, 1666, 4096, 65533}
	n := 0
	for _, mode := range []core.ChecksumMode{core.ChecksumSeparate, core.ChecksumIntegrated} {
		cfg := core.DefaultConfig()
		cfg.Checksum = mode
		for _, scheme := range allSchemes {
			for _, sem := range core.AllSemantics() {
				for _, length := range lengths {
					comparePoint(t, analytic.Point{Scheme: scheme, Sem: sem, AppOffset: 24, Length: length, Genie: cfg})
					n++
				}
			}
		}
	}
	t.Logf("compared %d points", n)
}

// TestEvaluateConfigVariants exercises non-default tunables: conversion
// thresholds, reverse-copyout threshold, and system input alignment.
func TestEvaluateConfigVariants(t *testing.T) {
	variants := []core.Config{
		{EmCopyOutputThreshold: 1, EmShareOutputThreshold: 1, ReverseCopyoutThreshold: 2178, SystemAlignment: true, KernelPoolPages: 64},
		{EmCopyOutputThreshold: 65536, EmShareOutputThreshold: 65536, ReverseCopyoutThreshold: 2178, SystemAlignment: true, KernelPoolPages: 64},
		{EmCopyOutputThreshold: 1666, EmShareOutputThreshold: 280, ReverseCopyoutThreshold: 1, SystemAlignment: true, KernelPoolPages: 64},
		{EmCopyOutputThreshold: 1666, EmShareOutputThreshold: 280, ReverseCopyoutThreshold: 2178, SystemAlignment: false, KernelPoolPages: 64},
	}
	n := 0
	for _, cfg := range variants {
		for _, scheme := range allSchemes {
			for _, off := range []struct{ dev, app int }{{0, 0}, {24, 24}, {0, 100}} {
				for _, sem := range core.AllSemantics() {
					for _, length := range []int{64, 1666, 4096, 8192} {
						comparePoint(t, analytic.Point{Scheme: scheme, Sem: sem, DevOff: off.dev, AppOffset: off.app, Length: length, Genie: cfg})
						n++
					}
				}
			}
		}
	}
	t.Logf("compared %d points", n)
}

// TestEvaluateMismatchNamesPoint shows the bit-exact comparison can
// fail: an estimate whose wire term is 0.1% off at one point must be
// caught, and the failure must name that point.
func TestEvaluateMismatchNamesPoint(t *testing.T) {
	m := *cost.Baseline()
	m.BasePerByte *= 1.001
	p := analytic.Point{Model: &m, Scheme: netsim.Pooled, Sem: core.Share, Length: 4966}
	got, err := analytic.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Model = nil // the simulator runs the unperturbed model
	d := mismatch(p, got, nil)
	if d == "" {
		t.Fatal("a wire term 0.1% off went unnoticed")
	}
	if want := "baseline/pooled/share/devoff=0/appoff=0/len=4966/"; !strings.HasPrefix(d, want) {
		t.Errorf("mismatch does not name the point %q:\n%s", want, d)
	}
	t.Log(d)
}

// gridPin pins TestEvaluateGridPinned's fold: every estimate of the
// grid, latency, receiver CPU and sender CPU in hex, in model, scheme,
// semantics, offset and length order.
const (
	gridPin    = "ab18a19e4b42a762"
	gridPoints = 142560
)

// TestEvaluateGridPinned evaluates 6 models x 3 schemes x 8 semantics x
// 5 offset pairs x lengths 1..65535 at stride 331 and pins the digest
// of every estimate and the point count. It logs the latency sum, added
// per (model, scheme, semantics, offset) subtotal.
func TestEvaluateGridPinned(t *testing.T) {
	d := digest.New()
	var latencySum float64
	for _, m := range allModels() {
		for _, scheme := range allSchemes {
			for _, sem := range core.AllSemantics() {
				for _, off := range allOffsets {
					var sub float64
					p := analytic.Point{Model: m, Scheme: scheme, Sem: sem, DevOff: off.dev, AppOffset: off.app}
					for p.Length = 1; p.Length <= netsim.MaxFrame; p.Length += 331 {
						e, err := analytic.Evaluate(p)
						if err != nil {
							t.Fatalf("%s: %v", pointName(p), err)
						}
						d.Addf("%x %x %x\n", e.LatencyUS, e.RxCPUUS, e.TxCPUUS)
						d.Record()
						sub += e.LatencyUS
					}
					latencySum += sub
				}
			}
		}
	}
	if d.Hex() != gridPin || d.Records() != gridPoints {
		t.Errorf("grid digest %s over %d points, pinned %s over %d", d.Hex(), d.Records(), gridPin, gridPoints)
	}
	t.Logf("%d points, latency sum %s us", d.Records(), strconv.FormatFloat(latencySum, 'f', -1, 64))
}

// TestEvaluateAllocs holds Evaluate at zero allocations across a spread
// of points: every scheme, copy and page-remapping semantics, aligned
// and offset placements, a platform model and a checksum mode.
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	ck := core.DefaultConfig()
	ck.Checksum = core.ChecksumIntegrated
	for _, p := range []analytic.Point{
		{Scheme: netsim.EarlyDemux, Sem: core.EmulatedCopy, Length: 61440},
		{Scheme: netsim.Pooled, Sem: core.Move, DevOff: 24, AppOffset: 24, Length: 4097},
		{Scheme: netsim.OutboardBuffering, Sem: core.EmulatedShare, Length: 65535},
		{Model: allModels()[5], Scheme: netsim.Pooled, Sem: core.EmulatedWeakMove, DevOff: 4096, Length: 8192},
		{Scheme: netsim.EarlyDemux, Sem: core.Copy, AppOffset: 24, Length: 1666, Genie: ck},
	} {
		if allocs := testing.AllocsPerRun(100, func() { _, _ = analytic.Evaluate(p) }); allocs != 0 {
			t.Errorf("%s: Evaluate made %v allocations, want 0", pointName(p), allocs)
		}
	}
}

// TestEvaluateErrors checks that Evaluate rejects what the simulated
// path rejects, with the same sentinel errors.
func TestEvaluateErrors(t *testing.T) {
	if _, err := analytic.Evaluate(analytic.Point{Sem: core.Semantics(42), Length: 64}); !errors.Is(err, core.ErrBadSemantics) {
		t.Errorf("invalid semantics: got %v, want ErrBadSemantics", err)
	}
	for _, n := range []int{0, -1, netsim.MaxFrame + 1} {
		if _, err := analytic.Evaluate(analytic.Point{Sem: core.Copy, Length: n}); !errors.Is(err, core.ErrBadBuffer) {
			t.Errorf("length %d: got %v, want ErrBadBuffer", n, err)
		}
	}
	cfg := core.DefaultConfig()
	cfg.Checksum = core.ChecksumSeparate
	// Checksumming is only defined for copy semantics over early demux.
	if _, err := analytic.Evaluate(analytic.Point{Sem: core.Share, Length: 64, Genie: cfg}); !errors.Is(err, core.ErrChecksumUnsupported) {
		t.Errorf("checksum+share: got %v, want ErrChecksumUnsupported", err)
	}
	if _, err := analytic.Evaluate(analytic.Point{Scheme: netsim.Pooled, Sem: core.Copy, Length: 64, Genie: cfg}); !errors.Is(err, core.ErrChecksumUnsupported) {
		t.Errorf("checksum+pooled: got %v, want ErrChecksumUnsupported", err)
	}
	if _, err := analytic.Evaluate(analytic.Point{Sem: core.Copy, Length: -5}); err == nil {
		t.Error("negative length accepted")
	}
	if _, err := analytic.Evaluate(analytic.Point{Sem: core.Copy, Length: 64, DevOff: -1}); err == nil {
		t.Error("negative device offset accepted")
	}
}

// TestEstimateDerivedQuantities pins the derived accessors to the same
// definitions Measurement uses.
func TestEstimateDerivedQuantities(t *testing.T) {
	e := analytic.Estimate{Bytes: 1000, LatencyUS: 500, RxCPUUS: 100}
	if got, want := e.ThroughputMbps(), 1000.0*8/500; got != want {
		t.Errorf("ThroughputMbps = %v, want %v", got, want)
	}
	if got, want := e.Utilization(), 100.0/500; got != want {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	var zero analytic.Estimate
	if zero.ThroughputMbps() != 0 || zero.Utilization() != 0 {
		t.Error("zero estimate should have zero derived quantities")
	}
}
