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
	for _, pf := range paperFigures {
		known = known || pf.id == *which
	}
	if !known {
		return usageErrf(fs, stderr, "-fig: no figure %d (3, 4, 5, 6, 7; 0 = all)", *which)
	}
	for _, pf := range paperFigures {
		if *which != 0 && *which != pf.id {
			continue
		}
		fig, err := pf.gen(experiments.Setup{})
		if err != nil {
			return failf(stderr, err)
		}
		fig.Plot(stdout, experiments.DefaultPlot)
		fmt.Fprintln(stdout)
	}
	return 0
}
