package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
)

// runPlotCmd renders the paper's Figures 3-7, or the one -fig names, as
// ASCII plots.
func runPlotCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench plot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	which := fs.Int("fig", 0, "figure to render (3, 4, 5, 6, 7; 0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the error and usage
	}
	known := *which == 0
	for _, e := range experiments.Experiments {
		known = known || e.Fig == *which
	}
	if !known {
		return usageErrf(fs, stderr, "-fig: no figure %d (3, 4, 5, 6, 7; 0 = all)", *which)
	}
	for _, e := range experiments.Experiments {
		if e.Fig == 0 || (*which != 0 && *which != e.Fig) {
			continue
		}
		out, err := e.Run(experiments.Setup{}, experiments.Runner{})
		if err != nil {
			return failf(stderr, err)
		}
		out.Figure.Plot(stdout, experiments.DefaultPlot)
		fmt.Fprintln(stdout)
	}
	return 0
}
