package netsim

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// Script opcodes of FuzzPoolReacquire. Each op is an (opcode, arg) byte
// pair.
const (
	poolGet     = iota // GetAppend of 1 + arg%4 pages
	poolPut            // Put of the held page arg picks
	poolConsume        // a held page leaves for good, as move input maps it
	poolRefill         // Refill of the pages consumed so far, up to 1 + arg%4
	poolRef            // an I/O reference and a wire on a held page
	poolReset          // PhysMem.Reset, Reacquire, then the fresh-pool check
	numPoolOps
)

// FuzzPoolReacquire is the oracle for OverlayPool.Reacquire's
// O(pages lent) rewrite. A byte script drives a pool built on a sealed
// PhysMem, as buildHost builds its pools, through GetAppend, Put,
// Refill, consumed pages and referenced or wired pages. After every
// PhysMem.Reset and Reacquire, and after a final one, the pool must
// equal a freshly built, sealed pool: the same free list (frame ids in
// order), Free, Total and HighWater, and every pool page in the same
// frame state. The first byte picks the pool size (1-16) and the spare
// frames Refill draws on (0-15). Ops that would break a documented
// precondition are skipped.
func FuzzPoolReacquire(f *testing.F) {
	f.Add([]byte{0x35})
	f.Add([]byte{0x35, poolGet, 3, poolReset, 0})
	f.Add([]byte{0x35, poolGet, 1, poolGet, 2, poolPut, 0, poolReset, 0, poolGet, 0, poolReset, 0})
	f.Add([]byte{0x3f, poolGet, 3, poolConsume, 0, poolConsume, 0, poolRefill, 3, poolGet, 1, poolReset, 0})
	f.Add([]byte{0x04, poolGet, 0, poolRef, 0, poolReset, 0})
	f.Add([]byte{0x24, poolGet, 2, poolRef, 1, poolPut, 0, poolGet, 0, poolReset, 0, poolGet, 3, poolGet, 3, poolPut, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		pages, spare := 6, 4
		if len(script) > 0 {
			pages, spare = 1+int(script[0]&15), int(script[0]>>4)
			script = script[1:]
		}
		const pageSize = 64
		build := func() (*mem.PhysMem, *OverlayPool) {
			pm := mem.New(pages+spare, pageSize)
			p, err := NewOverlayPool(pm, pages)
			if err != nil {
				t.Fatal(err)
			}
			pm.Seal()
			return pm, p
		}
		pm, p := build()
		var held []*mem.Frame
		consumed := 0
		reset := func(step int) {
			pm.Reset()
			p.Reacquire()
			held, consumed = nil, 0
			_, want := build()
			if err := samePool(p, want); err != nil {
				t.Fatalf("after op %d: %v", step, err)
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%numPoolOps, int(script[i+1])
			switch op {
			case poolGet:
				if n := 1 + arg%4; n <= p.Free() {
					var err error
					if held, err = p.GetAppend(held, n); err != nil {
						t.Fatalf("op %d: GetAppend(%d) with %d free: %v", i/2, n, p.Free(), err)
					}
				}
			case poolPut:
				if len(held) > 0 {
					k := arg % len(held)
					f := held[k]
					held = append(held[:k], held[k+1:]...)
					if f.Referenced() || f.Wired() {
						pm.UnrefInput(f)
						pm.Unwire(f)
					}
					p.Put(f)
				}
			case poolConsume:
				if len(held) > 0 {
					held = held[:len(held)-1]
					consumed++
				}
			case poolRefill:
				if n := min(1+arg%4, consumed); n > 0 && n <= pm.FreeFrames() {
					if err := p.Refill(n); err != nil {
						t.Fatalf("op %d: Refill(%d): %v", i/2, n, err)
					}
					consumed -= n
				}
			case poolRef:
				if len(held) > 0 {
					f := held[arg%len(held)]
					if !f.Referenced() {
						pm.RefInput(f)
						pm.Wire(f)
					}
				}
			case poolReset:
				reset(i / 2)
			}
		}
		reset(len(script) / 2)
	})
}

// samePool reports the first difference between a recycled pool and a
// fresh one: the free list entry by entry, the counts, then each pool
// page's frame state.
func samePool(got, want *OverlayPool) error {
	if got.Free() != want.Free() || got.Total() != want.Total() || got.HighWater() != want.HighWater() {
		return fmt.Errorf("pool has free %d, total %d, high water %d; fresh pool has %d, %d, %d",
			got.Free(), got.Total(), got.HighWater(), want.Free(), want.Total(), want.HighWater())
	}
	if got.untouched != want.untouched {
		return fmt.Errorf("untouched count %d, fresh pool %d", got.untouched, want.untouched)
	}
	for i, f := range got.free {
		if f.ID() != want.free[i].ID() {
			return fmt.Errorf("free list entry %d is frame %d, fresh pool has frame %d", i, f.ID(), want.free[i].ID())
		}
	}
	for i := range got.total {
		g, w := got.pm.Frame(got.base+mem.FrameID(i)), want.pm.Frame(want.base+mem.FrameID(i))
		if frameState(g) != frameState(w) {
			return fmt.Errorf("pool page %d (free list entry %d): frame state %+v, fresh pool %+v", g.ID(), i, frameState(g), frameState(w))
		}
	}
	return nil
}

// poolFrameState is the part of a frame's state Reacquire restores.
type poolFrameState struct {
	Free, Attached         bool
	InRefs, OutRefs, Wires int
}

func frameState(f *mem.Frame) poolFrameState {
	return poolFrameState{
		Free: f.Free(), Attached: f.Attached(),
		InRefs: f.InRefs(), OutRefs: f.OutRefs(), Wires: f.WireCount(),
	}
}
