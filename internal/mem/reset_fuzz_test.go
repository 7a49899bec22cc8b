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
	opReadmit
	numOps
)

// FuzzResetMatchesFresh drives a small PhysMem with a byte script and
// checks after every Reset that it equals a fresh PhysMem of the same
// geometry and the same boot frames: the same free list, every frame in
// the same state (free, attached, pristine, references, wires), the
// same statistics and high-water mark, and the same ids from
// allocating every free frame. The first byte picks the frame count (1-64,
// low six bits) and the plane (bit 6); with bit 7 set, the next byte
// picks k (mod frame count + 1) and the script first takes k frames
// and seals them, as a host does with its pools' pages
// (AllocN, then Seal). After every Reset the script re-admits each
// boot frame an op changed since the last one, as the pools do, and an
// opReadmit re-admits one more while no op has run since. Ops that
// would break a documented precondition (and so panic) are skipped.
// CheckInvariants, which also checks the untouched block behind
// Reset's O(touched) cost and that no boot frame is on the free list
// after Reset, runs after every op. A final Reset ends every script.
// The seed corpus in testdata/fuzz covers an empty script, allocating
// every frame, releasing in reverse, deferred frees through I/O
// references, two Resets in a row, sealing every frame and none, and a
// boot frame released or wired before a Reset.
func FuzzResetMatchesFresh(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		n, plane, k, seal := 8, Bytes, 0, false
		if len(script) > 0 {
			n = 1 + int(script[0]&63)
			if script[0]&64 != 0 {
				plane = Symbolic
			}
			if seal = script[0]&128 != 0; seal && len(script) > 1 {
				k = int(script[1]) % (n + 1)
				script = script[1:]
			}
			script = script[1:]
		}
		const pageSize = 64
		fresh := func() *PhysMem {
			pm := NewWithPlane(n, pageSize, plane)
			if seal {
				if _, err := pm.AllocN(nil, k); err != nil {
					t.Fatal(err)
				}
				pm.Seal()
			}
			return pm
		}
		s := &resetScript{pm: fresh(), lent: make([]bool, k), quiet: true}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%numOps, int(script[i+1])
			s.op(op, arg)
			if err := s.pm.CheckInvariants(); err != nil {
				t.Fatalf("op %d (%d, %d): %v", i/2, op, arg, err)
			}
			if op == opReset {
				checkMatchesFresh(t, s.pm, fresh())
			}
		}
		s.op(opReset, 0)
		checkMatchesFresh(t, s.pm, fresh())
	})
}

// resetScript applies FuzzResetMatchesFresh's ops to pm.
type resetScript struct {
	pm    *PhysMem
	lent  []bool // boot frames an op changed since the last Reset
	quiet bool   // no op but Reset, Readmit or Fault since the last Reset
}

// op applies one script op, skipping ops whose preconditions do not
// hold. A Reset is followed by the Readmits of the lent boot frames.
func (s *resetScript) op(op byte, arg int) {
	pm := s.pm
	f := pm.Frame(FrameID(arg % pm.NumFrames()))
	quiet := s.quiet
	s.quiet = false
	changed := true
	switch op {
	case opAlloc:
		f, _ = pm.Alloc()
	case opAllocZeroed:
		f, _ = pm.AllocZeroed()
	case opAllocN:
		fs, _ := pm.AllocN(nil, arg%(pm.NumFrames()+1))
		for _, g := range fs {
			s.lend(g)
		}
		f = nil
	case opRelease:
		changed = f.Attached()
		if changed {
			pm.Release(f)
		}
	case opRefInput:
		changed = !f.Free()
		if changed {
			pm.RefInput(f)
		}
	case opUnrefInput:
		changed = f.InRefs() > 0
		if changed {
			pm.UnrefInput(f)
		}
	case opRefOutput:
		changed = !f.Free()
		if changed {
			pm.RefOutput(f)
		}
	case opUnrefOutput:
		changed = f.OutRefs() > 0
		if changed {
			pm.UnrefOutput(f)
		}
	case opWire:
		changed = !f.Free()
		if changed {
			pm.Wire(f)
		}
	case opUnwire:
		changed = f.WireCount() > 0
		if changed {
			pm.Unwire(f)
		}
	case opReattach:
		changed = f.PendingFree()
		if changed {
			pm.Reattach(f)
		}
	case opReset:
		pm.Reset()
		for id, lent := range s.lent {
			if lent {
				pm.Readmit(pm.Frame(FrameID(id)))
			}
		}
		clear(s.lent)
		s.quiet = true
		return
	case opFault:
		s.quiet = quiet
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
		return
	case opReadmit:
		s.quiet = quiet
		if quiet && len(s.lent) > 0 {
			pm.Readmit(pm.Frame(FrameID(arg % len(s.lent))))
		}
		return
	}
	if changed && f != nil {
		s.lend(f)
	}
}

// lend records that an op changed frame f, if it is a boot frame.
func (s *resetScript) lend(f *Frame) {
	if int(f.ID()) < len(s.lent) {
		s.lent[f.ID()] = true
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
	if pm.Stats() != fresh.Stats() || pm.HighWater() != fresh.HighWater() {
		t.Fatalf("after Reset stats %+v and high-water mark %d, fresh %+v and %d",
			pm.Stats(), pm.HighWater(), fresh.Stats(), fresh.HighWater())
	}
	// Allocate every frame from a copy, so the script goes on from the
	// Reset state.
	clone := *pm
	clone.frames = slices.Clone(pm.frames)
	clone.freeList = slices.Clone(pm.freeList)
	for range pm.FreeFrames() {
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
