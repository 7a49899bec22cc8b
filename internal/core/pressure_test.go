package core

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

// TestWritePastMemory: writing more pages than a host has free frames
// fails with mem.ErrOutOfMemory.
func TestWritePastMemory(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{FramesPerHost: 96})
	if err != nil {
		t.Fatal(err)
	}
	p := tb.A.Genie.NewProcess()
	pages := tb.A.Phys.FreeFrames() + 8
	va, err := p.Brk(pages * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(va, make([]byte, pages*4096)); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Errorf("write of %d pages: err = %v, want ErrOutOfMemory", pages, err)
	}
}
