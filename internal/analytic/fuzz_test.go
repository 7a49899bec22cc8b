package analytic_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/par"
)

// FuzzEvaluateMatchesSimulation is the generated-input oracle for the
// charge plans: for a drawn platform and network model, semantics,
// scheme, length, device and application offsets, checksum mode, system
// alignment, reverse copyout threshold and short-data thresholds,
// Evaluate must reproduce the simulated Measurement bit for bit, and
// the simulator's plan check must never fire. Where the combination is unsupported, both paths
// must fail with the same sentinel error. Each input is measured twice
// with the memo off and recycling on: the second run takes the testbed
// the first one put back, so a recycled testbed must reproduce a
// fresh one on drawn configurations too. The testbed recycler keeps a
// bounded number of configurations, so a long run's memory stays flat.
func FuzzEvaluateMatchesSimulation(f *testing.F) {
	defer experiments.SetMemo(experiments.SetMemo(false))
	defer par.SetRecycling(par.SetRecycling(true))
	type seed struct {
		model, sem, scheme       uint8
		length, devOff, appOff   uint16
		checksum                 uint8
		align                    bool
		reverse, emCopy, emShare uint16
	}
	for _, s := range []seed{
		// A partial last page exactly at the reverse copyout threshold,
		// and one byte short of it.
		{0, uint8(core.EmulatedCopy), uint8(netsim.EarlyDemux), 4096 + 2178, 0, 0, 0, true, 2178, 1666, 280},
		{0, uint8(core.EmulatedCopy), uint8(netsim.EarlyDemux), 4096 + 2177, 0, 0, 0, true, 2178, 1666, 280},
		// Device placement misaligned with the application buffer.
		{0, uint8(core.EmulatedCopy), uint8(netsim.Pooled), 8192, 24, 0, 0, true, 2178, 1666, 280},
		{0, uint8(core.Move), uint8(netsim.Pooled), 4097, 4096, 0, 0, true, 2178, 1666, 280},
		// A short emulated copy converted to copy.
		{0, uint8(core.EmulatedCopy), uint8(netsim.EarlyDemux), 1000, 0, 24, 0, true, 2178, 1666, 280},
		// Integrated checksumming, and an unsupported checksum.
		{0, uint8(core.Copy), uint8(netsim.EarlyDemux), 4096, 0, 24, uint8(core.ChecksumIntegrated), true, 2178, 1666, 280},
		{0, uint8(core.Share), uint8(netsim.Pooled), 4096, 0, 0, uint8(core.ChecksumSeparate), true, 2178, 1666, 280},
		// The other five models: the Gateway P5-90 and AlphaStation
		// platforms (the AlphaStation's 8 KB pages), and OC-12.
		{1, uint8(core.EmulatedCopy), uint8(netsim.EarlyDemux), 61440, 0, 0, 0, true, 2178, 1666, 280},
		{2, uint8(core.Move), uint8(netsim.Pooled), 8193, 24, 24, 0, true, 2178, 1666, 280},
		{3, uint8(core.EmulatedShare), uint8(netsim.OutboardBuffering), 16384, 0, 24, 0, true, 2178, 1666, 280},
		{4, uint8(core.EmulatedWeakMove), uint8(netsim.Pooled), 12289, 4096, 0, 0, true, 2178, 1666, 280},
		{5, uint8(core.Copy), uint8(netsim.EarlyDemux), 9000, 0, 100, uint8(core.ChecksumIntegrated), false, 2178, 1666, 280},
	} {
		f.Add(s.model, s.sem, s.scheme, s.length, s.devOff, s.appOff, s.checksum, s.align, s.reverse, s.emCopy, s.emShare)
	}
	models := allModels()
	f.Fuzz(func(t *testing.T, model, sem, scheme uint8, length, devOff, appOff uint16, checksum uint8, align bool, reverse, emCopy, emShare uint16) {
		cfg := core.DefaultConfig()
		cfg.Checksum = core.ChecksumMode(checksum % 3)
		cfg.SystemAlignment = align
		cfg.ReverseCopyoutThreshold = int(reverse) % 4098
		cfg.EmCopyOutputThreshold, cfg.EmShareOutputThreshold = int(emCopy), int(emShare)
		s := experiments.Setup{
			Model:     models[int(model)%len(models)],
			Scheme:    allSchemes[int(scheme)%len(allSchemes)],
			DevOff:    int(devOff) % 4097,
			AppOffset: int(appOff) % 4096,
			Genie:     cfg,
		}
		n := max(1, int(length))
		sm := core.Semantics(sem % 8)
		desc := fmt.Sprintf("%v over scheme %d on %s/%s, %d bytes, devoff %d, appoff %d, %+v",
			sm, s.Scheme, s.Model.Platform.Name, s.Model.Net.Name, n, s.DevOff, s.AppOffset, cfg)

		want, simErr := experiments.Measure(s, sm, n)
		if errors.Is(simErr, core.ErrPlanMismatch) {
			t.Fatalf("%s: %v", desc, simErr)
		}
		again, againErr := experiments.Measure(s, sm, n)
		if fmt.Sprint(againErr) != fmt.Sprint(simErr) || again.LatencyUS != want.LatencyUS ||
			again.RxCPUUS != want.RxCPUUS || again.TxCPUUS != want.TxCPUUS {
			t.Fatalf("%s: measured again on a recycled testbed lat=%v rx=%v tx=%v err %v, first lat=%v rx=%v tx=%v err %v",
				desc, again.LatencyUS, again.RxCPUUS, again.TxCPUUS, againErr, want.LatencyUS, want.RxCPUUS, want.TxCPUUS, simErr)
		}
		got, anErr := analytic.Evaluate(analytic.Point{
			Model: s.Model, Scheme: s.Scheme, Sem: sm, DevOff: s.DevOff, AppOffset: s.AppOffset, Length: n, Genie: cfg,
		})
		if simErr != nil || anErr != nil {
			for _, sentinel := range []error{core.ErrChecksumUnsupported, core.ErrBadSemantics, core.ErrBadBuffer} {
				if errors.Is(anErr, sentinel) && errors.Is(simErr, sentinel) {
					return
				}
			}
			t.Fatalf("%s: simulated err %v, analytic err %v", desc, simErr, anErr)
		}
		if got.LatencyUS != want.LatencyUS || got.RxCPUUS != want.RxCPUUS || got.TxCPUUS != want.TxCPUUS {
			t.Fatalf("%s:\n  analytic  lat=%v rx=%v tx=%v\n  simulated lat=%v rx=%v tx=%v", desc,
				got.LatencyUS, got.RxCPUUS, got.TxCPUUS, want.LatencyUS, want.RxCPUUS, want.TxCPUUS)
		}
	})
}
