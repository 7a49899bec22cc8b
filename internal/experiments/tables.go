package experiments

import (
	"fmt"
	"math"

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

// fitOps runs instrumented sweeps across the three buffering
// configurations and least-squares fits latency versus byte count for
// every primitive operation observed, recovering Table 6. The
// (configuration, semantics, length) points fan out across the worker
// pool; the per-point records are appended to the sample sets in index
// order, which is exactly the serial collection order, so the fits are
// identical to the serial path.
func fitOps(s Setup, lengths []int) (map[cost.Op]stats.Fit, error) {
	type fitPoint struct {
		s   Setup
		sem core.Semantics
		b   int
	}
	var points []fitPoint
	for _, cfg := range []Setup{
		{Model: s.Model, Scheme: netsim.EarlyDemux},
		{Model: s.Model, Scheme: netsim.Pooled},
		{Model: s.Model, Scheme: netsim.Pooled, AppOffset: 1000},
	} {
		cfg.Instrument = true
		for _, sem := range core.AllSemantics() {
			for _, b := range lengths {
				points = append(points, fitPoint{cfg, sem, b})
			}
		}
	}
	records := make([][]core.OpRecord, len(points))
	err := runner().ForEach(len(points), func(i int) error {
		p := points[i]
		m, err := Measure(p.s, p.sem, p.b)
		if err != nil {
			return err
		}
		records[i] = m.Records
		return nil
	})
	if err != nil {
		return nil, err
	}
	samples := make(map[cost.Op][][2]float64)
	for _, recs := range records {
		for _, r := range recs {
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
func Table6(s Setup) (Table, error) {
	fits, err := fitOps(s, PageSweep(s.model().Platform.PageSize))
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

// latencyFit fits measured end-to-end latency versus length for one
// semantics under one setup — the "actual" (A) rows of Table 7.
func latencyFit(s Setup, sem core.Semantics, lengths []int) (stats.Fit, error) {
	ms, err := Sweep(s, sem, lengths)
	if err != nil {
		return stats.Fit{}, err
	}
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
func Table7(s Setup) (Table, error) {
	lengths := PageSweep(s.model().Platform.PageSize)
	opFits, err := fitOps(s, lengths)
	if err != nil {
		return Table{}, err
	}

	early := Setup{Model: s.Model, Scheme: netsim.EarlyDemux}
	aligned := Setup{Model: s.Model, Scheme: netsim.Pooled}
	unaligned := Setup{Model: s.Model, Scheme: netsim.Pooled, AppOffset: 1000}

	// Base latency: emulated share early-demux fit minus reference and
	// unreference (Section 8).
	emShareFit, err := latencyFit(early, core.EmulatedShare, lengths)
	if err != nil {
		return Table{}, err
	}
	base := emShareFit
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
	paperRow := func(sem core.Semantics) PaperTable7Row {
		for _, r := range PaperTable7 {
			if r.Sem == sem {
				return r
			}
		}
		return PaperTable7Row{}
	}
	// One task per semantics: each produces its E and A row pair, and the
	// three actual-latency fits inside fan their sweeps out in turn.
	sems := core.AllSemantics()
	rowPairs := make([][2][]string, len(sems))
	err = runner().ForEach(len(sems), func(i int) error {
		sem := sems[i]
		pr := paperRow(sem)

		estE := estimateFit(opFits, base, sem, netsim.EarlyDemux, true)
		estP := estimateFit(opFits, base, sem, netsim.Pooled, true)
		estU := estimateFit(opFits, base, sem, netsim.Pooled, false)
		actE, err := latencyFit(early, sem, lengths)
		if err != nil {
			return err
		}
		actP, err := latencyFit(aligned, sem, lengths)
		if err != nil {
			return err
		}
		actU, err := latencyFit(unaligned, sem, lengths)
		if err != nil {
			return err
		}
		rowPairs[i] = [2][]string{{
			sem.String(), "E",
			fmtFit(estE.Slope, estE.Intercept), fmtFit(pr.EarlyE.PerByte, pr.EarlyE.Fixed),
			fmtFit(estP.Slope, estP.Intercept), fmtFit(pr.AlignedE.PerByte, pr.AlignedE.Fixed),
			fmtFit(estU.Slope, estU.Intercept), fmtFit(pr.UnalignedE.PerByte, pr.UnalignedE.Fixed),
		}, {
			"", "A",
			fmtFit(actE.Slope, actE.Intercept), fmtFit(pr.EarlyA.PerByte, pr.EarlyA.Fixed),
			fmtFit(actP.Slope, actP.Intercept), fmtFit(pr.AlignedA.PerByte, pr.AlignedA.Fixed),
			fmtFit(actU.Slope, actU.Intercept), fmtFit(pr.UnalignedA.PerByte, pr.UnalignedA.Fixed),
		}}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	for _, pair := range rowPairs {
		t.Rows = append(t.Rows, pair[0], pair[1])
	}
	return t, nil
}

// Table8 regenerates the cross-platform scaling table: operation fits
// are measured on each platform's derived model and their ratios to the
// baseline are summarized per parameter class, next to the estimated
// bounds from Table 5 hardware data and the published summaries.
func Table8() (Table, error) {
	// A reduced sweep keeps the three-platform measurement quick while
	// covering enough lengths for exact fits.
	baseModel := cost.Baseline()
	lengths := []int{4096, 12288, 24576, 40960, 61440}
	baseFits, err := fitOps(Setup{Model: baseModel}, lengths)
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
		model := cost.NewModel(p, cost.CreditNetOC3)
		// Use a baseline-page-size variant for the Alpha so sweeps use
		// identical lengths (the scaling analysis is about op costs, not
		// page geometry).
		p4k := p
		p4k.PageSize = baseModel.Platform.PageSize
		model = cost.NewModel(p4k, cost.CreditNetOC3)
		fits, err := fitOps(Setup{Model: model}, lengths)
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
			s, err := stats.Summarize(ratios)
			if err != nil {
				return
			}
			t.Rows = append(t.Rows, []string{
				p.Name, kind, estimated,
				fmt.Sprintf("%.2f", s.GM), fmt.Sprintf("%.2f", s.Min), fmt.Sprintf("%.2f", s.Max),
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
func TableOC12() (Table, error) {
	model := cost.NewModel(cost.MicronP166, cost.CreditNetOC12)
	s := Setup{Model: model, Scheme: netsim.EarlyDemux}
	t := Table{
		ID:     "OC-12 prediction",
		Title:  "Predicted throughput for single 60 KB datagrams at OC-12 (622 Mbps), early demultiplexing",
		Header: []string{"semantics", "predicted Mbps", "paper Mbps"},
	}
	sems := core.AllSemantics()
	rows := make([][]string, len(sems))
	err := runner().ForEach(len(sems), func(i int) error {
		sem := sems[i]
		m, err := Measure(s, sem, maxDatagram(s))
		if err != nil {
			return err
		}
		paper := ""
		if v, ok := PaperOC12ThroughputMbps[sem]; ok {
			paper = fmt.Sprintf("%.0f", v)
		}
		rows[i] = []string{sem.String(), fmt.Sprintf("%.0f", m.ThroughputMbps()), paper}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}
