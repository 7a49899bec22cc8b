package experiments

import (
	"io"

	"repro/internal/cost"
)

// Experiment is one figure or table of the evaluation. Run measures it
// from a base Setup on a Runner: every setup it measures derives from
// the base, and whatever model, scheme, offsets or framework tunables
// it sets, it keeps the base's data plane, fault spec and tracer.
type Experiment struct {
	Name    string
	Section string // "figures", "tables" or "ablations"
	// Fig is the paper's figure number for Figures 3-7, else 0.
	Fig int
	Run func(base Setup, r Runner) (Output, error)
}

// Output is an experiment's artifact: a figure or a table.
type Output struct {
	Figure *Figure `json:"figure,omitempty"`
	Table  *Table  `json:"table,omitempty"`
}

// Render writes the figure or table as aligned columns.
func (o Output) Render(w io.Writer) {
	if o.Figure != nil {
		o.Figure.Render(w)
	} else if o.Table != nil {
		o.Table.Render(w)
	}
}

// Experiments lists every figure, table and ablation in print order.
var Experiments = []Experiment{
	figure("Figure 3", 3, Figure3),
	figure("Figure 4", 4, Figure4),
	figure("Figure 5", 5, Figure5),
	figure("Figure 6", 6, Figure6),
	figure("Figure 7", 7, Figure7),
	figure("Outboard (predicted)", 0, FigureOutboard),
	table("Figure 3 (throughput)", "figures", Figure3Throughput),
	table("Table 1", "tables", func(Setup, Runner) (Table, error) { return Table1(), nil }),
	table("Table 5", "tables", func(Setup, Runner) (Table, error) { return Table5(), nil }),
	table("Table 6", "tables", Table6),
	table("Table 7", "tables", Table7),
	table("Table 8", "tables", Table8),
	table("OC-12 prediction", "tables", TableOC12),
	table("Throughput (OC-3)", "tables", func(s Setup, r Runner) (Table, error) {
		return TableThroughput(s, r, cost.CreditNetOC3)
	}),
	table("Throughput (OC-12)", "tables", func(s Setup, r Runner) (Table, error) {
		return TableThroughput(s, r, cost.CreditNetOC12)
	}),
	table("Ablation: wiring", "ablations", AblationWiring),
	table("Ablation: alignment", "ablations", AblationAlignment),
	table("Ablation: thresholds", "ablations", AblationThresholds),
	table("Ablation: reverse copyout", "ablations", AblationReverseCopyout),
	table("Ablation: output protection", "ablations", AblationOutputProtection),
	table("Ablation: checksum", "ablations", AblationChecksum),
	table("Ablation: pageout", "ablations", AblationPageout),
}

// figure registers a figure; n is its paper figure number, or 0.
func figure(name string, n int, f func(Setup, Runner) (Figure, error)) Experiment {
	return Experiment{Name: name, Section: "figures", Fig: n, Run: func(s Setup, r Runner) (Output, error) {
		fig, err := f(s, r)
		return Output{Figure: &fig}, err
	}}
}

// table registers a table in section.
func table(name, section string, f func(Setup, Runner) (Table, error)) Experiment {
	return Experiment{Name: name, Section: section, Run: func(s Setup, r Runner) (Output, error) {
		t, err := f(s, r)
		return Output{Table: &t}, err
	}}
}
