// Package examples_test pins the stdout of every example program, so a
// change to the genie facade or to the layers under it that alters what
// an example prints fails here instead of passing unseen.
package examples_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesOutputPinned builds every examples/*/main.go program and
// compares its stdout with testdata/<name>.golden byte for byte. The
// cluster example prints its shard-worker count in its header line, so
// it is pinned at -workers 1, and a -workers 4 run must print the same
// lines after that header.
func TestExamplesOutputPinned(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not on PATH: %v", err)
	}
	mains, err := filepath.Glob(filepath.Join("*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no example programs found")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}

	run := func(t *testing.T, name string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, stderr.Bytes())
		}
		return out
	}

	for _, m := range mains {
		name := filepath.Dir(m)
		t.Run(name, func(t *testing.T) {
			var args []string
			if name == "cluster" {
				args = []string{"-workers", "1"}
			}
			got := run(t, name, args...)
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s stdout differs from testdata/%s.golden at %s", name, name, firstDiff(got, want))
			}
			if name != "cluster" {
				return
			}
			_, serialBody, _ := bytes.Cut(got, []byte("\n"))
			_, parallelBody, _ := bytes.Cut(run(t, name, "-workers", "4"), []byte("\n"))
			if !bytes.Equal(parallelBody, serialBody) {
				t.Errorf("cluster -workers 4 differs from -workers 1 after the header at %s",
					firstDiff(parallelBody, serialBody))
			}
		})
	}
}

// firstDiff names the first line where got and want differ.
func firstDiff(got, want []byte) string {
	g := strings.SplitAfter(string(got), "\n")
	w := strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "no line"
}
