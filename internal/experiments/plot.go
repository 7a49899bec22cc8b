package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// PlotConfig sizes an ASCII plot.
type PlotConfig struct {
	Width  int
	Height int
}

// DefaultPlot is the `geniebench plot` rendering size.
var DefaultPlot = PlotConfig{Width: 72, Height: 22}

// Plot draws the figure as an ASCII scatter, one glyph per series in
// taxonomy order, so the curve shapes (the copy-vs-everything gap of
// Figure 3, move's zeroing penalty in Figure 5, the three bands of
// Figure 7) are visible in a terminal.
func (f Figure) Plot(w io.Writer, cfg PlotConfig) {
	if cfg.Width <= 0 || cfg.Height <= 1 {
		cfg = DefaultPlot
	}
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	const glyphs = "cCsSmMwW" // copy, emulated copy, share, ... taxonomy order
	var xMax, yMax float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			xMax = math.Max(xMax, float64(p.Bytes))
			yMax = math.Max(yMax, p.Value)
		}
	}
	if xMax == 0 || yMax == 0 {
		fmt.Fprintln(w, "(empty figure)")
		return
	}
	grid := make([][]byte, cfg.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cfg.Width))
	}
	for si, s := range f.Series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points {
			x := int(float64(p.Bytes) / xMax * float64(cfg.Width-1))
			y := cfg.Height - 1 - int(p.Value/yMax*float64(cfg.Height-1))
			if y >= 0 && y < cfg.Height && x >= 0 && x < cfg.Width {
				grid[y][x] = g
			}
		}
	}
	for i, row := range grid {
		label := strings.Repeat(" ", 6)
		switch i {
		case 0:
			label = fmt.Sprintf("%6.0f", yMax)
		case cfg.Height - 1:
			label = fmt.Sprintf("%6.0f", 0.0)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(w, "       +%s\n", strings.Repeat("-", cfg.Width))
	fmt.Fprintf(w, "        0 .. %.0f bytes  (%s)\n", xMax, f.YLabel)
	fmt.Fprint(w, "        legend: ")
	for si, s := range f.Series {
		fmt.Fprintf(w, "%c=%s  ", glyphs[si%len(glyphs)], s.Label)
	}
	fmt.Fprintln(w)
}
