package experiments

import (
	"strings"
	"testing"
)

// TestGeneratorsEndToEnd runs every registered experiment from the zero
// Setup, checking structural sanity of each artifact.
func TestGeneratorsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full generator suite is slow")
	}
	tables := map[string]*Table{}
	for _, e := range Experiments {
		out, err := e.Run(Setup{}, Runner{})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if (out.Figure == nil) == (out.Table == nil) {
			t.Fatalf("%s: want exactly one of a figure and a table", e.Name)
		}
		if e.Fig != 0 && out.Figure == nil {
			t.Errorf("%s: paper figure %d is not a figure", e.Name, e.Fig)
		}
		if out.Table != nil {
			tables[e.Name] = out.Table
			continue
		}
		fig := out.Figure
		if len(fig.Series) != 8 {
			t.Errorf("%s: %d series, want 8", e.Name, len(fig.Series))
		}
		for _, series := range fig.Series {
			if len(series.Points) == 0 {
				t.Errorf("%s/%s: empty series", e.Name, series.Label)
			}
			for _, p := range series.Points {
				if p.Value <= 0 {
					t.Errorf("%s/%s: nonpositive value at %d bytes", e.Name, series.Label, p.Bytes)
				}
			}
		}
		if !strings.Contains(fig.String(), "emulated copy") {
			t.Errorf("%s: render missing series", e.Name)
		}
	}
	if len(Experiments) != 22 {
		t.Errorf("%d experiments registered, want 22", len(Experiments))
	}

	if n := len(tables["Figure 3 (throughput)"].Rows); n != 8 {
		t.Errorf("throughput rows = %d", n)
	}

	t6 := tables["Table 6"]
	if len(t6.Rows) < 20 {
		t.Errorf("Table 6 rows = %d, want >= 20 ops", len(t6.Rows))
	}
	// Every row with a paper value matches it textually after rounding.
	matches := 0
	for _, row := range t6.Rows {
		if row[2] != "" && row[1] == row[2] {
			matches++
		}
	}
	if matches < 18 {
		t.Errorf("only %d Table 6 rows match the paper exactly", matches)
	}

	if n := len(tables["Table 7"].Rows); n != 16 {
		t.Errorf("Table 7 rows = %d, want 16 (E and A per semantics)", n)
	}
	if n := len(tables["OC-12 prediction"].Rows); n != 8 {
		t.Errorf("OC-12 rows = %d", n)
	}
	for _, row := range tables["Throughput (OC-3)"].Rows {
		if row[5] != "wire" {
			t.Errorf("OC-3 streaming: %s bottleneck %q, want wire", row[0], row[5])
		}
	}
}
