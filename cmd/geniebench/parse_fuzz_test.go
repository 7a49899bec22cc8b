package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseLists drives every list-flag parser with one input: none may
// panic, an error must quote a token the parser rejects, and an accepted list
// must format back into a list that re-parses to the same values (bit
// for bit, so -0 stays -0). The committed corpus in testdata/fuzz covers
// empty fields, whitespace, NaN, infinities, -0, hyphenated and spaced
// semantics names and an integer too large for int.
func FuzzParseLists(f *testing.F) {
	f.Add("1,2,4")
	f.Fuzz(func(t *testing.T, s string) {
		// checkErr requires err to quote a token, trimmed as the parsers
		// quote it, that ok rejects.
		checkErr := func(name string, err error, ok func(tok string) bool) {
			t.Helper()
			for _, tok := range strings.Split(s, ",") {
				if tok = strings.TrimSpace(tok); !ok(tok) && strings.Contains(err.Error(), strconv.Quote(tok)) {
					return
				}
			}
			t.Fatalf("%s(%q): error %q quotes no bad token", name, s, err)
		}
		isInt := func(tok string) bool { _, err := strconv.Atoi(tok); return err == nil }

		ints, err := parseIntList(s)
		if err != nil {
			checkErr("parseIntList", err, isInt)
		} else if back, err := parseIntList(joinInts(ints)); err != nil || !equalInts(back, ints) {
			t.Fatalf("parseIntList(%q) = %v, re-parsed %v (%v)", s, ints, back, err)
		}

		ws, err := parseWorkers(s)
		if err != nil {
			checkErr("parseWorkers", err, func(tok string) bool { n, err := strconv.Atoi(tok); return err == nil && n >= 1 })
		} else if back, err := parseWorkers(joinInts(ws)); err != nil || !equalInts(back, ws) {
			t.Fatalf("parseWorkers(%q) = %v, re-parsed %v (%v)", s, ws, back, err)
		}

		fs, err := parseFloatList(s)
		if err != nil {
			checkErr("parseFloatList", err, func(tok string) bool {
				x, err := strconv.ParseFloat(tok, 64)
				return err == nil && !math.IsNaN(x) && !math.IsInf(x, 0)
			})
		} else {
			strs := make([]string, len(fs))
			for i, x := range fs {
				strs[i] = strconv.FormatFloat(x, 'g', -1, 64)
			}
			back, err := parseFloatList(strings.Join(strs, ","))
			same := err == nil && len(back) == len(fs)
			for i := 0; same && i < len(fs); i++ {
				same = math.Float64bits(back[i]) == math.Float64bits(fs[i])
			}
			if !same {
				t.Fatalf("parseFloatList(%q) = %v, re-parsed %v (%v)", s, fs, back, err)
			}
		}

		sems, err := parseSemanticsList(s)
		if err != nil {
			checkErr("parseSemanticsList", err, func(tok string) bool { _, err := parseSemanticsList(tok); return err == nil && tok != "" })
		} else {
			names := make([]string, len(sems))
			for i, sem := range sems {
				names[i] = sem.String()
			}
			back, err := parseSemanticsList(strings.Join(names, ","))
			if err != nil || len(back) != len(sems) {
				t.Fatalf("parseSemanticsList(%q) = %v, re-parsed %v (%v)", s, sems, back, err)
			}
			for i := range sems {
				if back[i] != sems[i] || !back[i].Valid() {
					t.Fatalf("parseSemanticsList(%q) = %v, re-parsed %v", s, sems, back)
				}
			}
		}
	})
}

func joinInts(ns []int) string {
	strs := make([]string, len(ns))
	for i, n := range ns {
		strs[i] = strconv.Itoa(n)
	}
	return strings.Join(strs, ",")
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
