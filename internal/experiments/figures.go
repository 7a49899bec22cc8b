package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
)

// sweepFigure measures all eight semantics over lengths under one setup
// and packages the chosen metric as a figure. The (semantics, length)
// points fan out across r as one flat list, semantics-major, and the
// series are assembled by index, so the figure is identical at any
// worker count.
func sweepFigure(s Setup, r Runner, id, title, ylabel string, lengths []int, metric func(Measurement) float64) (Figure, error) {
	fig := Figure{ID: id, Title: title, YLabel: ylabel}
	sems := core.AllSemantics()
	ms, err := r.MeasureAll(sweepProbes(s, sems, lengths))
	if err != nil {
		return Figure{}, err
	}
	nL := len(lengths)
	for si, sem := range sems {
		series := Series{Label: sem.String()}
		for _, m := range ms[si*nL : (si+1)*nL] {
			series.Points = append(series.Points, Point{Bytes: m.Bytes, Value: metric(m)})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Figure3 reproduces the end-to-end latency sweep with early
// demultiplexing: page-multiple datagrams up to 60 KB, all semantics.
func Figure3(s Setup, r Runner) (Figure, error) {
	s.Scheme = netsim.EarlyDemux
	return sweepFigure(s, r, "Figure 3",
		"End-to-end latency with early demultiplexing",
		"latency, us", PageSweep(s.model().Platform.PageSize), latencyUS)
}

// Figure3Throughput reports the single 60 KB datagram equivalent
// throughput per semantics that the paper quotes alongside Figure 3.
func Figure3Throughput(s Setup, r Runner) (Table, error) {
	s.Scheme = netsim.EarlyDemux
	rows, err := throughputRows(s, r, PaperFig3ThroughputMbps)
	return Table{
		ID:     "Figure 3 (throughput)",
		Title:  "Equivalent throughput for single 60 KB datagrams, early demultiplexing",
		Header: []string{"semantics", "measured Mbps", "paper Mbps"},
		Rows:   rows,
	}, err
}

// throughputRows measures every semantics' largest datagram under s
// and lists its equivalent throughput next to the paper's, if any.
func throughputRows(s Setup, r Runner, paper map[core.Semantics]float64) ([][]string, error) {
	sems := core.AllSemantics()
	ms, err := r.MeasureAll(sweepProbes(s, sems, []int{maxDatagram(s)}))
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(sems))
	for i, sem := range sems {
		p := ""
		if v, ok := paper[sem]; ok {
			p = fmt.Sprintf("%.0f", v)
		}
		rows[i] = []string{sem.String(), fmt.Sprintf("%.0f", ms[i].ThroughputMbps()), p}
	}
	return rows, nil
}

// Figure4 reproduces the CPU utilization measurement: receiver CPU busy
// time (including work overlapped with reception) over end-to-end time.
func Figure4(s Setup, r Runner) (Figure, error) {
	s.Scheme = netsim.EarlyDemux
	return sweepFigure(s, r, "Figure 4",
		"CPU utilization during the latency test, early demultiplexing",
		"utilization, %", PageSweep(s.model().Platform.PageSize),
		func(m Measurement) float64 { return m.Utilization() * 100 })
}

// Figure5 reproduces the short-datagram latency sweep, where the output
// conversion thresholds and reverse copyout dominate.
func Figure5(s Setup, r Runner) (Figure, error) {
	s.Scheme = netsim.EarlyDemux
	return sweepFigure(s, r, "Figure 5",
		"End-to-end latency for short datagrams with early demultiplexing",
		"latency, us", ShortSweep(), latencyUS)
}

// Figure6 reproduces the pooled-buffering sweep with application-aligned
// buffers: the application queries the device's preferred alignment and
// places its buffers at that page offset.
func Figure6(s Setup, r Runner) (Figure, error) {
	s.Scheme = netsim.Pooled
	s.AppOffset = s.DevOff // application input alignment: query and match
	return sweepFigure(s, r, "Figure 6",
		"End-to-end latency with application-aligned pooled input buffering",
		"latency, us", PageSweep(s.model().Platform.PageSize), latencyUS)
}

// Figure7 reproduces the pooled-buffering sweep with unaligned
// application buffers: application-allocated semantics must copy at the
// receiver, system-allocated semantics are unaffected.
func Figure7(s Setup, r Runner) (Figure, error) {
	s.Scheme = netsim.Pooled
	s.AppOffset = s.DevOff + 1000 // deliberately misaligned buffers
	return sweepFigure(s, r, "Figure 7",
		"End-to-end latency with unaligned pooled input buffering",
		"latency, us", PageSweep(s.model().Platform.PageSize), latencyUS)
}

// FigureOutboard predicts the outboard-buffering sweep the paper could
// not measure ("limitations in the hardware used"): staging adds a
// store-and-forward DMA to every semantics, and emulated copy is
// implemented much like emulated share (Section 6.2.3).
func FigureOutboard(s Setup, r Runner) (Figure, error) {
	s.Scheme = netsim.OutboardBuffering
	return sweepFigure(s, r, "Outboard (predicted)",
		"End-to-end latency with outboard buffering (not measured in the paper)",
		"latency, us", PageSweep(s.model().Platform.PageSize), latencyUS)
}

// maxDatagram returns the largest page-multiple datagram AAL5 allows.
func maxDatagram(s Setup) int {
	sweep := PageSweep(s.model().Platform.PageSize)
	return sweep[len(sweep)-1]
}

// latencyUS is the end-to-end latency metric.
func latencyUS(m Measurement) float64 { return m.LatencyUS }
