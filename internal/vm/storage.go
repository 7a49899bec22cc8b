package vm

import (
	"fmt"
	"math/bits"
)

// Storage the VM system owns outright — region page tables, object page
// slots, and the Region and MemObject records themselves — is recycled
// or carved in bulk, so a recycled system's run allocates almost none
// of it. Tables and page slots are owned by exactly one region or
// object and go back to size-classed free lists when it drops them
// (RemoveRegion, an object's destroy, System.Reset). Records are never
// reused, because callers keep *Region and *MemObject pointers: they
// are carved from slabs instead, up to slabSize records per allocation.

// spares is a free list of cleared slices by size class: class k holds
// slices of capacity 1<<k, every element zero. A slice is made only
// when its class is empty, so each class holds at most as many slices
// as were ever in use at once, and the lists do not grow across
// System.Reset.
type spares[T any] [][][]T

// sizeClass returns the class of a slice of n elements, n >= 1: the
// smallest k with 1<<k >= n.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// take returns a zeroed slice of length n from its class, or a new one
// of the class's capacity.
func (s *spares[T]) take(n int) []T {
	k := sizeClass(n)
	if k < len(*s) {
		if l := len((*s)[k]) - 1; l >= 0 {
			b := (*s)[k][l]
			(*s)[k][l] = nil
			(*s)[k] = (*s)[k][:l]
			return b[:n]
		}
	}
	return make([]T, n, 1<<k)
}

// put clears b and returns it to its class. Elements past len(b) are
// zero already: owners only write below the length they took.
func (s *spares[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	k := sizeClass(cap(b))
	for len(*s) <= k {
		*s = append(*s, nil)
	}
	(*s)[k] = append((*s)[k], b[:0])
}

// grow returns b one element longer, the new last element zero. A full
// b moves to a slice of the next class and goes back to its own.
func (s *spares[T]) grow(b []T) []T {
	if len(b) < cap(b) {
		return b[:len(b)+1]
	}
	nb := s.take(len(b) + 1)
	copy(nb, b)
	s.put(b)
	return nb
}

// check reports the first spare slice that is not a cleared slice of
// its class's capacity.
func (s spares[T]) check(what string) error {
	var zero T
	for k, class := range s {
		for i, b := range class {
			if cap(b) != 1<<k || len(b) != 0 {
				return fmt.Errorf("vm: spare %s %d of class %d has length %d and capacity %d, want 0 and %d",
					what, i, k, len(b), cap(b), 1<<k)
			}
			for j, v := range b[:cap(b)] {
				if any(v) != any(zero) {
					return fmt.Errorf("vm: spare %s %d of class %d holds a stale entry at %d: %v", what, i, k, j, v)
				}
			}
		}
	}
	return nil
}

// slab carves zero records of type T from chunks allocated in bulk. A
// record keeps its space or its shadow chain reachable after its run,
// so a chunk shared by two runs would chain each run's dropped spaces
// and objects to the next: reset drops the rest of the current chunk.
// To waste little doing so, a chunk covers what the previous run
// carved beyond this run's count so far, else as many as this run has
// carved (a run past its predecessor doubles), between 1 and slabSize.
type slab[T any] struct {
	free []T
	used int // records carved since the last reset
	prev int // records carved in the previous run
}

// slabSize caps a chunk.
const slabSize = 32

// next returns a zero record.
func (s *slab[T]) next() *T {
	if len(s.free) == 0 {
		s.free = make([]T, min(slabSize, max(1, s.prev-s.used, s.used)))
	}
	r := &s.free[0]
	s.free = s.free[1:]
	s.used++
	return r
}

// reset starts the next run.
func (s *slab[T]) reset() {
	s.free, s.prev, s.used = nil, s.used, 0
}

// CheckSpares verifies the storage the system keeps for reuse: every
// spare page table, page slot, region list and I/O reference list slice
// is cleared over its whole capacity, which is its size class's.
// Recycled-host oracles call it after Reset.
func (sys *System) CheckSpares() error {
	if err := sys.tables.check("page table"); err != nil {
		return err
	}
	if err := sys.pages.check("page slots"); err != nil {
		return err
	}
	if err := sys.regions.check("region list"); err != nil {
		return err
	}
	if err := sys.extents.check("extent list"); err != nil {
		return err
	}
	return sys.entries.check("reference list")
}
