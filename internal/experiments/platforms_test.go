package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
)

// TestAllPlatformsEndToEnd runs the full data path on every Table 5
// machine (including the AlphaStation's 8 KB pages) and every buffering
// architecture, verifying delivery and that measured latency composes
// exactly from that platform's own cost model.
func TestAllPlatformsEndToEnd(t *testing.T) {
	for _, p := range cost.Platforms() {
		p := p
		model := cost.NewModel(p, cost.CreditNetOC3)
		for _, scheme := range []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering} {
			scheme := scheme
			t.Run(p.Name+"/"+scheme.String(), func(t *testing.T) {
				length := 6 * p.PageSize
				for _, sem := range core.AllSemantics() {
					m, err := Measure(Setup{Model: model, Scheme: scheme}, sem, length)
					if err != nil {
						t.Fatalf("%v: %v", sem, err)
					}
					want := platformExpected(model, sem, scheme, length)
					if diff := m.LatencyUS - want; diff > 0.01 || diff < -0.01 {
						t.Errorf("%v: latency %.2f, composed %.2f", sem, m.LatencyUS, want)
					}
				}
			})
		}
	}
}

// platformExpected composes the expected latency from the model via the
// critical-path table (page-multiple aligned configuration).
func platformExpected(m *cost.Model, sem core.Semantics, scheme netsim.InputBuffering, b int) float64 {
	lat := m.BaseLatency(b).Micros()
	for _, op := range CriticalPath(sem, scheme, true) {
		c := m.Cost(op, b).Micros()
		if c < 0 {
			c = 0
		}
		lat += c
	}
	return lat
}

// TestAlphaSlowerPerOpButFasterCopyin: the AlphaStation's copyin is
// cheaper than the P166's (bigger L2), while its page-table operations
// are much more expensive — the architecture contrast Table 8 captures.
func TestAlphaScalingContrast(t *testing.T) {
	p166 := cost.Baseline()
	alpha := cost.NewModel(cost.AlphaStation255, cost.CreditNetOC3)
	if alpha.Cost(cost.Copyin, 61440) >= p166.Cost(cost.Copyin, 61440) {
		t.Error("Alpha copyin not cheaper despite larger, faster L2")
	}
	if alpha.Cost(cost.Swap, 61440) <= p166.Cost(cost.Swap, 61440) {
		t.Error("Alpha page swap not dearer despite Table 8's observation")
	}
}

// TestPlotRendering smoke-tests the ASCII plotter on a real figure.
func TestPlotRendering(t *testing.T) {
	fig, err := sweepFigure(Setup{Scheme: netsim.EarlyDemux}, Runner{}, "Figure X", "plot test", "us",
		[]int{4096, 32768, 61440}, latencyUS)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fig.Plot(&b, PlotConfig{Width: 40, Height: 10})
	out := b.String()
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "c=copy") {
		t.Errorf("plot missing legend:\n%s", out)
	}
	if !strings.Contains(out, "|") || len(strings.Split(out, "\n")) < 12 {
		t.Errorf("plot missing grid:\n%s", out)
	}
	// Degenerate configs fall back to defaults and empty figures say so.
	var e strings.Builder
	Figure{ID: "empty"}.Plot(&e, PlotConfig{})
	if !strings.Contains(e.String(), "empty figure") {
		t.Error("empty figure not reported")
	}
}

// TestCSVOutput checks both CSV writers.
func TestCSVOutput(t *testing.T) {
	fig := Figure{
		ID: "F", Series: []Series{
			{Label: "a,b", Points: []Point{{4096, 1.5}, {8192, 2.5}}},
			{Label: "plain", Points: []Point{{4096, 3}, {8192, 4}}},
		},
	}
	var b strings.Builder
	fig.CSV(&b)
	want := "bytes,\"a,b\",plain\n4096,1.5,3\n8192,2.5,4\n"
	if b.String() != want {
		t.Errorf("figure CSV = %q, want %q", b.String(), want)
	}
	tbl := Table{Header: []string{"x", "y"}, Rows: [][]string{{"1", "two \"q\""}}}
	var tb strings.Builder
	tbl.CSV(&tb)
	if !strings.Contains(tb.String(), `"two ""q"""`) {
		t.Errorf("table CSV escaping: %q", tb.String())
	}
}
