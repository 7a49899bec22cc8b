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
// order), Free, Total and HighWater, and the same frame state on every
// page lent so far, and on every pool page after the final one. Its
// PhysMem must have built as many frame records as a fresh one handed
// the frames the pool lent or took on Refill, so Reacquire builds none
// for the pages it never lent. The first byte picks the pool size (1-16, times 9 from
// bit 3 of the spare count, so pools span record chunks) and the spare
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
			if spare&8 != 0 {
				pages *= 9
			}
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
		used := map[mem.FrameID]bool{} // frames the pool has lent or taken on Refill
		reset := func(step int, final bool) {
			pm.Reset()
			p.Reacquire()
			held, consumed = nil, 0
			fpm, want := build()
			for id := range used {
				fpm.Frame(id)
			}
			if got, want := pm.Records(), fpm.Records(); got != want {
				t.Fatalf("after op %d: %d frame records built, a fresh PhysMem handed the same frames has %d", step, got, want)
			}
			pages := used
			if final {
				pages = nil // every pool page
			}
			if err := samePool(p, want, pages); err != nil {
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
					for _, f := range held[len(held)-n:] {
						used[f.ID()] = true
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
					for _, f := range p.free[len(p.free)-n:] {
						used[f.ID()] = true
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
				reset(i/2, false)
			}
		}
		reset(len(script)/2, true)
	})
}

// samePool reports the first difference between a recycled pool and a
// fresh one: the free list entry by entry, the counts, then the frame
// state of each pool page in pages, or of every pool page if pages is
// nil. It looks up only the frames it compares.
func samePool(got, want *OverlayPool, pages map[mem.FrameID]bool) error {
	if got.Free() != want.Free() || got.Total() != want.Total() || got.HighWater() != want.HighWater() {
		return fmt.Errorf("pool has free %d, total %d, high water %d; fresh pool has %d, %d, %d",
			got.Free(), got.Total(), got.HighWater(), want.Free(), want.Total(), want.HighWater())
	}
	if got.untouched != want.untouched || got.base != want.base || len(got.free) != len(want.free) {
		return fmt.Errorf("untouched count %d from frame %d under %d entries, fresh pool %d from %d under %d",
			got.untouched, got.base, len(got.free), want.untouched, want.base, len(want.free))
	}
	for i, f := range got.free {
		if f.ID() != want.free[i].ID() {
			return fmt.Errorf("free list entry %d is frame %d, fresh pool has frame %d", got.untouched+i, f.ID(), want.free[i].ID())
		}
	}
	for i := range got.total {
		id := got.base + mem.FrameID(i)
		if pages != nil && !pages[id] {
			continue
		}
		g, w := got.pm.Frame(id), want.pm.Frame(id)
		if frameState(g) != frameState(w) {
			return fmt.Errorf("pool page %d: frame state %+v, fresh pool %+v", id, frameState(g), frameState(w))
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
