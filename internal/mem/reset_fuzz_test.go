package mem

import (
	"slices"
	"testing"
)

// Script opcodes of FuzzResetMatchesFresh. Each op is an (opcode, arg)
// byte pair; the frame an op targets is arg mod the frame count.
const (
	opAlloc = iota
	opAllocZeroed
	opAllocN
	opRelease
	opRefInput
	opUnrefInput
	opRefOutput
	opUnrefOutput
	opWire
	opUnwire
	opReattach
	opReset
	opFault
	numOps
)

// FuzzResetMatchesFresh drives a small PhysMem with a byte script and
// checks after every Reset that it equals a fresh PhysMem of the same
// geometry: the same free list, every frame free, detached, not pristine
// and without references or wires, zero statistics and high-water mark,
// and the same ids from the next NumFrames allocations. The first byte
// picks the frame count (1-64, low six bits) and the plane (bit 6); ops
// that would break a documented precondition (and so panic) are
// skipped. CheckInvariants, which also checks the untouched block
// behind Reset's O(touched) cost, runs after every op. A final Reset
// ends every script. The seed corpus in testdata/fuzz covers an empty
// script, allocating every frame, releasing in reverse, deferred frees
// through I/O references, and two Resets in a row.
func FuzzResetMatchesFresh(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		n, plane := 8, Bytes
		if len(script) > 0 {
			n = 1 + int(script[0]&63)
			if script[0]&64 != 0 {
				plane = Symbolic
			}
			script = script[1:]
		}
		const pageSize = 64
		pm := NewWithPlane(n, pageSize, plane)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%numOps, int(script[i+1])
			scriptOp(pm, op, arg)
			if err := pm.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d, %d): %v", i/2, op, arg, err)
			}
			if op == opReset {
				checkMatchesFresh(t, pm, NewWithPlane(n, pageSize, plane))
			}
		}
		pm.Reset()
		checkMatchesFresh(t, pm, NewWithPlane(n, pageSize, plane))
	})
}

// scriptOp applies one script op to pm, skipping ops whose
// preconditions do not hold.
func scriptOp(pm *PhysMem, op byte, arg int) {
	f := pm.Frame(FrameID(arg % pm.NumFrames()))
	switch op {
	case opAlloc:
		_, _ = pm.Alloc()
	case opAllocZeroed:
		_, _ = pm.AllocZeroed()
	case opAllocN:
		_, _ = pm.AllocN(nil, arg%(pm.NumFrames()+1))
	case opRelease:
		if f.Attached() {
			pm.Release(f)
		}
	case opRefInput:
		if !f.Free() {
			pm.RefInput(f)
		}
	case opUnrefInput:
		if f.InRefs() > 0 {
			pm.UnrefInput(f)
		}
	case opRefOutput:
		if !f.Free() {
			pm.RefOutput(f)
		}
	case opUnrefOutput:
		if f.OutRefs() > 0 {
			pm.UnrefOutput(f)
		}
	case opWire:
		if !f.Free() {
			pm.Wire(f)
		}
	case opUnwire:
		if f.WireCount() > 0 {
			pm.Unwire(f)
		}
	case opReattach:
		if f.PendingFree() {
			pm.Reattach(f)
		}
	case opReset:
		pm.Reset()
	case opFault:
		// Fail every (arg mod 4)th allocation; 0 disarms.
		every, calls := arg%4, 0
		if every == 0 {
			pm.SetAllocFault(nil)
			return
		}
		pm.SetAllocFault(func() bool {
			calls++
			return calls%every == 0
		})
	}
}

// checkMatchesFresh compares a just-Reset PhysMem with a fresh one.
func checkMatchesFresh(t *testing.T, pm, fresh *PhysMem) {
	t.Helper()
	if !slices.Equal(pm.freeList, fresh.freeList) {
		t.Fatalf("free list after Reset %v, fresh %v", pm.freeList, fresh.freeList)
	}
	for i := range pm.frames {
		g, w := &pm.frames[i], &fresh.frames[i]
		if g.free != w.free || g.attached != w.attached || g.pristine != w.pristine ||
			g.inRefs != w.inRefs || g.outRefs != w.outRefs || g.wired != w.wired {
			t.Fatalf("after Reset %v (pristine %t), fresh %v (pristine %t)", g, g.pristine, w, w.pristine)
		}
	}
	if pm.Stats() != (Stats{}) || pm.HighWater() != 0 {
		t.Fatalf("after Reset stats %+v and high-water mark %d, want zero", pm.Stats(), pm.HighWater())
	}
	// Allocate every frame from a copy, so the script goes on from the
	// Reset state.
	clone := *pm
	clone.frames = slices.Clone(pm.frames)
	clone.freeList = slices.Clone(pm.freeList)
	for range pm.NumFrames() {
		g, err := clone.Alloc()
		if err != nil {
			t.Fatalf("alloc after Reset: %v", err)
		}
		w, err := fresh.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if g.ID() != w.ID() {
			t.Fatalf("alloc after Reset returned frame %d, fresh frame %d", g.ID(), w.ID())
		}
	}
}
