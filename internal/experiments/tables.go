package experiments

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/stats"
)

// Table1 reproduces the introduction's LAN bandwidth table.
func Table1() Table {
	t := Table{
		ID:     "Table 1",
		Title:  "Approximate year of introduction and point-to-point bandwidth of several popular LANs",
		Header: []string{"LAN", "year introduced", "bandwidth (Mbps)"},
	}
	for _, lan := range cost.LANs() {
		bw := ""
		for i, m := range lan.Mbps {
			if i > 0 {
				bw += ", "
			}
			bw += fmt.Sprintf("%g", m)
		}
		t.Rows = append(t.Rows, []string{lan.Name, fmt.Sprint(lan.Year), bw})
	}
	return t
}

// Table5 reproduces the machine characteristics table.
func Table5() Table {
	t := Table{
		ID:     "Table 5",
		Title:  "Characteristics of the computers used in the experiments",
		Header: []string{"", "Micron P166", "Gateway P5-90", "DEC AlphaStation 255/233"},
	}
	ps := cost.Platforms()
	row := func(label string, f func(cost.Platform) string) {
		cells := []string{label}
		for _, p := range ps {
			cells = append(cells, f(p))
		}
		t.Rows = append(t.Rows, cells)
	}
	row("CPU", func(p cost.Platform) string { return fmt.Sprintf("%s %d MHz", p.CPU, p.MHz) })
	row("Integer rating", func(p cost.Platform) string { return fmt.Sprintf("%.2f", p.SPECint) })
	row("L1-cache", func(p cost.Platform) string {
		return fmt.Sprintf("%d KBI + %d KBD, %.0f Mbps", p.L1KB, p.L1KB, p.L1BWMbps)
	})
	row("L2-cache", func(p cost.Platform) string {
		return fmt.Sprintf("%d KB, %.0f Mbps", p.L2KB, p.L2BWMbps)
	})
	row("Memory", func(p cost.Platform) string {
		return fmt.Sprintf("%d MB, %d B page, %.0f Mbps", p.MemMB, p.PageSize, p.MemBWMbps)
	})
	return t
}

// bufferingConfigs derives Table 7's three buffering configurations
// from s: early demultiplexing, application-aligned pooled and
// unaligned pooled input buffering.
func bufferingConfigs(s Setup) [3]Setup {
	early, aligned, unaligned := s.env(), s.env(), s.env()
	early.Scheme = netsim.EarlyDemux
	aligned.Scheme = netsim.Pooled
	unaligned.Scheme, unaligned.AppOffset = netsim.Pooled, 1000
	return [3]Setup{early, aligned, unaligned}
}

// fitOps runs instrumented sweeps across the three buffering
// configurations and least-squares fits latency versus byte count for
// every primitive operation observed, recovering Table 6. The
// (configuration, semantics, length) points fan out across r; the
// per-point records are appended to the sample sets in point order, so
// the fits are identical at any worker count.
func fitOps(s Setup, r Runner, lengths []int) (map[cost.Op]stats.Fit, error) {
	var probes []Probe
	for _, cfg := range bufferingConfigs(s) {
		cfg.Instrument = true
		probes = append(probes, sweepProbes(cfg, core.AllSemantics(), lengths)...)
	}
	ms, err := r.MeasureAll(probes)
	if err != nil {
		return nil, err
	}
	samples := make(map[cost.Op][][2]float64)
	for _, m := range ms {
		for _, r := range m.Records {
			samples[r.Op] = append(samples[r.Op], [2]float64{float64(r.Bytes), r.Latency.Micros()})
		}
	}

	fits := make(map[cost.Op]stats.Fit)
	for op, pts := range samples {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p[0], p[1]
		}
		fit, err := stats.LinearFit(xs, ys)
		if err != nil {
			// Constant byte count (fixed-cost ops): report the mean as
			// the fixed term, as a flat fit.
			mean, merr := stats.Mean(ys)
			if merr != nil {
				continue
			}
			fit = stats.Fit{Slope: 0, Intercept: mean, R2: 1, N: len(ys)}
		}
		fits[op] = fit
	}
	return fits, nil
}

// fmtFit renders a fit the way the paper prints Table 6 rows.
func fmtFit(perByte, fixed float64) string {
	switch {
	case perByte == 0 || math.Abs(perByte) < 1e-9:
		return fmt.Sprintf("%.0f", fixed)
	default:
		return fmt.Sprintf("%.3g B + %.0f", perByte, fixed)
	}
}

// Table6 regenerates the primitive-operation cost table by instrumenting
// the latency sweeps and fitting each operation's latency against data
// length, printed next to the published fits.
func Table6(s Setup, r Runner) (Table, error) {
	fits, err := fitOps(s, r, PageSweep(s.model().Platform.PageSize))
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Table 6",
		Title:  "Costs of primitive data passing operations, in us (B = data length in bytes)",
		Header: []string{"operation", "measured", "paper"},
	}
	for _, op := range cost.Ops() {
		fit, ok := fits[op]
		if !ok {
			continue
		}
		paper := ""
		if pf, ok := PaperTable6[op]; ok {
			paper = fmtFit(pf.PerByte, pf.Fixed)
		}
		t.Rows = append(t.Rows, []string{op.String(), fmtFit(fit.Slope, fit.Intercept), paper})
	}
	return t, nil
}

// latencyFit fits measured end-to-end latency versus length over one
// semantics' sweep — the "actual" (A) rows of Table 7.
func latencyFit(ms []Measurement) (stats.Fit, error) {
	xs := make([]float64, len(ms))
	ys := make([]float64, len(ms))
	for i, m := range ms {
		xs[i], ys[i] = float64(m.Bytes), m.LatencyUS
	}
	return stats.LinearFit(xs, ys)
}

// CriticalPath returns the primitive operations that contribute to
// end-to-end latency for one semantics under one buffering scheme,
// derived from core's Tables 2-4 by Section 8's overlap analysis: sender
// prepare ops always contribute; receiver ready ops contribute except
// under early demultiplexing, where they run at posting time; receiver
// dispose ops contribute except buffer deallocation, which is deferred
// past notification, and completion zeroing, which has no bytes to zero
// at Table 7's page-multiple lengths. An unaligned application buffer
// turns a swap into a copyout.
func CriticalPath(sem core.Semantics, scheme netsim.InputBuffering, aligned bool) []cost.Op {
	ops := core.OutputPrepareOps(sem)
	if scheme != netsim.EarlyDemux {
		ops = append(ops, core.InputReadyOps(sem, scheme)...)
	}
	for _, op := range core.InputDisposeOps(sem, scheme) {
		switch {
		case op == cost.BufDeallocate || op == cost.ZeroComplete:
			continue
		case op == cost.Swap && !aligned && !sem.SystemAllocated():
			op = cost.Copyout
		}
		ops = append(ops, op)
	}
	return ops
}

// estimateFit composes an estimated end-to-end fit (the "E" rows of
// Table 7) from measured operation fits: base latency plus the critical
// path's operations. The base latency is derived exactly as the paper
// does — emulated share's early-demultiplexing latency minus its
// reference and unreference costs.
func estimateFit(opFits map[cost.Op]stats.Fit, base stats.Fit, sem core.Semantics, scheme netsim.InputBuffering, aligned bool) stats.Fit {
	est := base
	for _, op := range CriticalPath(sem, scheme, aligned) {
		if f, ok := opFits[op]; ok {
			est.Slope += f.Slope
			est.Intercept += f.Intercept
		}
	}
	return est
}

// Table7 regenerates the estimated-versus-actual latency table: actual
// fits come from the Figure 3/6/7 sweeps; estimates are composed from
// the instrumented Table 6 operation fits and the derived base latency.
func Table7(s Setup, r Runner) (Table, error) {
	lengths := PageSweep(s.model().Platform.PageSize)
	opFits, err := fitOps(s, r, lengths)
	if err != nil {
		return Table{}, err
	}
	// One flat list: every semantics' sweep under each of the three
	// buffering configurations in turn.
	sems := core.AllSemantics()
	var probes []Probe
	for _, cfg := range bufferingConfigs(s) {
		probes = append(probes, sweepProbes(cfg, sems, lengths)...)
	}
	ms, err := r.MeasureAll(probes)
	if err != nil {
		return Table{}, err
	}
	// actual[c*len(sems)+i] fits semantics i's sweep under configuration c.
	n := len(lengths)
	actual := make([]stats.Fit, len(ms)/n)
	for k := range actual {
		if actual[k], err = latencyFit(ms[k*n : (k+1)*n]); err != nil {
			return Table{}, err
		}
	}

	// Base latency: emulated share early-demux fit minus reference and
	// unreference (Section 8).
	base := actual[slices.Index(sems, core.EmulatedShare)]
	for _, op := range []cost.Op{cost.Reference, cost.Unreference} {
		if f, ok := opFits[op]; ok {
			base.Slope -= f.Slope
			base.Intercept -= f.Intercept
		}
	}

	t := Table{
		ID:     "Table 7",
		Title:  "Estimated (E) and actual (A) end-to-end latencies, in us (B = data length in bytes)",
		Header: []string{"semantics", "", "early demux", "paper", "aligned pooled", "paper", "unaligned pooled", "paper"},
	}
	for i, sem := range sems {
		var pr PaperTable7Row
		for _, row := range PaperTable7 {
			if row.Sem == sem {
				pr = row
				break
			}
		}
		estE := estimateFit(opFits, base, sem, netsim.EarlyDemux, true)
		estP := estimateFit(opFits, base, sem, netsim.Pooled, true)
		estU := estimateFit(opFits, base, sem, netsim.Pooled, false)
		actE, actP, actU := actual[i], actual[len(sems)+i], actual[2*len(sems)+i]
		t.Rows = append(t.Rows, []string{
			sem.String(), "E",
			fmtFit(estE.Slope, estE.Intercept), fmtFit(pr.EarlyE.PerByte, pr.EarlyE.Fixed),
			fmtFit(estP.Slope, estP.Intercept), fmtFit(pr.AlignedE.PerByte, pr.AlignedE.Fixed),
			fmtFit(estU.Slope, estU.Intercept), fmtFit(pr.UnalignedE.PerByte, pr.UnalignedE.Fixed),
		}, []string{
			"", "A",
			fmtFit(actE.Slope, actE.Intercept), fmtFit(pr.EarlyA.PerByte, pr.EarlyA.Fixed),
			fmtFit(actP.Slope, actP.Intercept), fmtFit(pr.AlignedA.PerByte, pr.AlignedA.Fixed),
			fmtFit(actU.Slope, actU.Intercept), fmtFit(pr.UnalignedA.PerByte, pr.UnalignedA.Fixed),
		})
	}
	return t, nil
}

// Table8 regenerates the cross-platform scaling table: operation fits
// are measured on each platform's derived model and their ratios to the
// baseline are summarized per parameter class, next to the estimated
// bounds from Table 5 hardware data and the published summaries.
func Table8(s Setup, r Runner) (Table, error) {
	// A reduced sweep keeps the three-platform measurement quick while
	// covering enough lengths for exact fits.
	s.Model = cost.Baseline()
	lengths := []int{4096, 12288, 24576, 40960, 61440}
	baseFits, err := fitOps(s, r, lengths)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:     "Table 8",
		Title:  "Scaling of data passing costs relative to the Micron P166",
		Header: []string{"platform", "parameter type", "estimated", "GM", "min", "max", "paper GM", "paper min..max"},
	}
	for _, entry := range []struct {
		p     cost.Platform
		paper PaperTable8Entry
	}{
		{cost.GatewayP5_90, PaperTable8Entries[0]},
		{cost.AlphaStation255, PaperTable8Entries[1]},
	} {
		p := entry.p
		// Use a baseline-page-size variant for the Alpha so sweeps use
		// identical lengths (the scaling analysis is about op costs, not
		// page geometry).
		p4k := p
		p4k.PageSize = s.Model.Platform.PageSize
		ps := s
		ps.Model = cost.NewModel(p4k, cost.CreditNetOC3)
		fits, err := fitOps(ps, r, lengths)
		if err != nil {
			return Table{}, err
		}

		var memRatios, cacheRatios, cpuMult, cpuFixed []float64
		for op, bf := range baseFits {
			f, ok := fits[op]
			if !ok {
				continue
			}
			switch cost.OpClass(op) {
			case cost.ClassMemory:
				if bf.Slope > 1e-9 {
					memRatios = append(memRatios, f.Slope/bf.Slope)
				}
			case cost.ClassCache:
				if bf.Slope > 1e-9 {
					cacheRatios = append(cacheRatios, f.Slope/bf.Slope)
				}
			default:
				if op == cost.OutboardDMA {
					continue
				}
				if bf.Slope > 1e-9 {
					cpuMult = append(cpuMult, f.Slope/bf.Slope)
				}
				if bf.Intercept > 0.5 {
					cpuFixed = append(cpuFixed, f.Intercept/bf.Intercept)
				}
			}
		}
		addRow := func(kind, estimated string, ratios []float64, paperGM float64, paperRange string) {
			if len(ratios) == 0 {
				return
			}
			sum, err := stats.Summarize(ratios)
			if err != nil {
				return
			}
			t.Rows = append(t.Rows, []string{
				p.Name, kind, estimated,
				fmt.Sprintf("%.2f", sum.GM), fmt.Sprintf("%.2f", sum.Min), fmt.Sprintf("%.2f", sum.Max),
				fmt.Sprintf("%.2f", paperGM), paperRange,
			})
		}
		lo, hi := p.CacheRatioBounds()
		addRow("memory-dominated", fmt.Sprintf("%.2f", p.MemRatio()), memRatios,
			entry.paper.MemGM, "")
		addRow("cache-dominated", fmt.Sprintf("> %.2f, < %.2f", lo, hi), cacheRatios,
			entry.paper.CacheGM, "")
		addRow("CPU-dominated mult. factor", fmt.Sprintf("> %.2f", p.CPURatioLowerBound()), cpuMult,
			entry.paper.CPUMultGM, fmt.Sprintf("%.2f..%.2f", entry.paper.CPUMultMin, entry.paper.CPUMultMax))
		addRow("CPU-dominated fixed term", fmt.Sprintf("> %.2f", p.CPURatioLowerBound()), cpuFixed,
			entry.paper.CPUFixedGM, fmt.Sprintf("%.2f..%.2f", entry.paper.CPUFixedMin, entry.paper.CPUFixedMax))
	}
	return t, nil
}

// TableOC12 regenerates the Section 8 extrapolation: predicted 60 KB
// single-datagram throughput at OC-12 rates on the Micron P166.
func TableOC12(s Setup, r Runner) (Table, error) {
	s = s.env()
	s.Model = cost.NewModel(cost.MicronP166, cost.CreditNetOC12)
	s.Scheme = netsim.EarlyDemux
	rows, err := throughputRows(s, r, PaperOC12ThroughputMbps)
	return Table{
		ID:     "OC-12 prediction",
		Title:  "Predicted throughput for single 60 KB datagrams at OC-12 (622 Mbps), early demultiplexing",
		Header: []string{"semantics", "predicted Mbps", "paper Mbps"},
		Rows:   rows,
	}, err
}
