package vm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// planeRun is the observable outcome of one scripted VM workload:
// everything an application or an operator could see.
type planeRun struct {
	parent, child []byte
	sys           SysStats
	phys          mem.Stats
}

// runPlaneScript drives one System through a seeded random sequence of
// writes, reads, forks with COW breaks in the child, TCOW-protected
// output references, and pageout daemon scans. The sequence of random
// draws is identical for a given seed regardless of plane, so two runs
// differ only in how page contents are represented.
func runPlaneScript(seed int64, plane mem.DataPlane) (planeRun, error) {
	rng := rand.New(rand.NewSource(seed))
	pm := mem.NewWithPlane(96, testPageSize, plane)
	sys := NewSystem(pm)
	as := sys.NewAddressSpace()
	const pages = 4
	const size = pages * testPageSize
	r, err := as.AllocRegion(size, Unmovable)
	if err != nil {
		return planeRun{}, err
	}
	daemon := NewPageoutDaemon(sys)
	var child *AddressSpace
	var pendingOut []*IORef

	for op := 0; op < 120; op++ {
		switch rng.Intn(6) {
		case 0, 1: // write a random range
			off := rng.Intn(size)
			n := rng.Intn(size-off)/2 + 1
			data := make([]byte, n)
			rng.Read(data)
			if err := as.Poke(r.Start()+Addr(off), data); err != nil {
				return planeRun{}, fmt.Errorf("op %d: poke: %w", op, err)
			}
		case 2: // fork once, then COW-breaking writes in the child
			if child == nil {
				c, err := as.Fork()
				if err != nil {
					return planeRun{}, fmt.Errorf("op %d: fork: %w", op, err)
				}
				child = c
			} else {
				off := rng.Intn(size - 64)
				data := make([]byte, rng.Intn(64)+1)
				rng.Read(data)
				if err := child.Poke(r.Start()+Addr(off), data); err != nil {
					return planeRun{}, fmt.Errorf("op %d: child poke: %w", op, err)
				}
			}
		case 3: // start or finish a TCOW-protected output
			if len(pendingOut) > 0 && rng.Intn(2) == 0 {
				ref := pendingOut[0]
				pendingOut = pendingOut[1:]
				ref.Unreference()
			} else {
				off := rng.Intn(pages) * testPageSize
				n := (rng.Intn(pages-off/testPageSize) + 1) * testPageSize
				ref := new(IORef)
				if err := as.ReferenceRangeInto(ref, r.Start()+Addr(off), n, false); err != nil {
					return planeRun{}, fmt.Errorf("op %d: reference: %w", op, err)
				}
				as.RemoveWrite(r.Start()+Addr(off), n)
				pendingOut = append(pendingOut, ref)
			}
		case 4: // let the pageout daemon reclaim
			daemon.ScanOnce(rng.Intn(4))
		case 5: // read a random range (contents enter the run hash below)
			off := rng.Intn(size)
			n := rng.Intn(size-off)/2 + 1
			got := make([]byte, n)
			if err := as.Peek(r.Start()+Addr(off), got); err != nil {
				return planeRun{}, fmt.Errorf("op %d: peek: %w", op, err)
			}
		}
		if err := as.CheckInvariants(); err != nil {
			return planeRun{}, fmt.Errorf("op %d: %w", op, err)
		}
	}
	for _, ref := range pendingOut {
		ref.Unreference()
	}

	run := planeRun{parent: make([]byte, size)}
	if err := as.Peek(r.Start(), run.parent); err != nil {
		return planeRun{}, err
	}
	if child != nil {
		run.child = make([]byte, size)
		if err := child.Peek(r.Start(), run.child); err != nil {
			return planeRun{}, err
		}
	}
	run.sys = sys.Stats()
	run.phys = pm.Stats()
	return run, nil
}

// TestPropertyPlanesIndistinguishable is the cross-plane equivalence
// property: for any seeded workload of writes, COW forks, TCOW output
// protection, pageouts, and reads, the bytes and symbolic planes
// resolve to identical memory contents and count identical faults,
// pageouts, COW copies, and frame-level statistics. The plane is a
// representation of page contents, never of behavior.
func TestPropertyPlanesIndistinguishable(t *testing.T) {
	prop := func(seed int64) bool {
		byRun, err := runPlaneScript(seed, mem.Bytes)
		if err != nil {
			t.Logf("seed %d bytes plane: %v", seed, err)
			return false
		}
		symRun, err := runPlaneScript(seed, mem.Symbolic)
		if err != nil {
			t.Logf("seed %d symbolic plane: %v", seed, err)
			return false
		}
		if !bytes.Equal(byRun.parent, symRun.parent) {
			t.Logf("seed %d: parent contents differ across planes", seed)
			return false
		}
		if !bytes.Equal(byRun.child, symRun.child) {
			t.Logf("seed %d: child contents differ across planes", seed)
			return false
		}
		if byRun.sys != symRun.sys {
			t.Logf("seed %d: VM stats differ: bytes %+v, symbolic %+v", seed, byRun.sys, symRun.sys)
			return false
		}
		if !reflect.DeepEqual(byRun.phys, symRun.phys) {
			t.Logf("seed %d: phys stats differ: bytes %+v, symbolic %+v", seed, byRun.phys, symRun.phys)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
