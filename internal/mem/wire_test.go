package mem

import (
	"sync"
	"testing"
)

// GetWire serves each size from its power-of-two class, PutWire takes
// back only class-sized slices, and sizes past the largest class are
// plain allocations that never enter the pool.
func TestWireClasses(t *testing.T) {
	for _, c := range []struct{ n, cap int }{
		{1, 64}, {64, 64}, {65, 128}, {4096, 4096}, {4097, 8192}, {65535, 65536}, {1 << 17, 1 << 17},
	} {
		b := GetWire(c.n)
		if len(b) != c.n || cap(b) != c.cap {
			t.Errorf("GetWire(%d): len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.cap)
		}
		PutWire(b)
	}
	if b := GetWire(1<<17 + 1); cap(b) != 1<<17+1 {
		t.Errorf("GetWire past the largest class: cap %d, want an exact allocation", cap(b))
	}
	foreign := make([]byte, 100)
	PutWire(foreign)
	for i := 0; i < 8; i++ {
		if b := GetWire(100); &b[0] == &foreign[0] {
			t.Fatal("PutWire pooled a slice whose capacity is not a class size")
		}
	}
}

// Shard goroutines draw and return wire buffers concurrently: no buffer
// is ever handed to two holders at once, so a holder's bytes stay its
// own until it puts the buffer back. Run with -race.
func TestWireConcurrentHolders(t *testing.T) {
	const workers, rounds = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := 64 << (r % 7)
				b := GetWire(n)
				tag := byte(w*31 + r)
				for i := range b {
					b[i] = tag
				}
				for i := range b {
					if b[i] != tag {
						t.Errorf("worker %d round %d: held buffer changed under its holder", w, r)
						return
					}
				}
				PutWire(b)
			}
		}(w)
	}
	wg.Wait()
}
