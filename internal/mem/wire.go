package mem

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Wire buffers: the bytes-plane snapshots a protocol stack hands to its
// network adapter (an output's copy of the application buffer, a DMA
// read of referenced pages, a sendfile cache read). Such a snapshot
// must outlive the call that made it — it travels on the simulated wire
// — but dies as soon as the receiving adapter has copied it out, so the
// receiver hands it back here and the next snapshot of that size class
// reuses it instead of allocating.
//
// The same pool holds page backing stores: a discarded machine's pages
// wait here (PhysMem.Discard) until a frame's first write takes one
// (Frame.touch), so a cluster built after another is dropped writes its
// pages without allocating.
//
// The pool is one sync.Pool per power-of-two class, safe for concurrent
// use: sender and receiver may run on different cluster shard
// goroutines. A pooled slice keeps its old contents; GetWire's caller
// overwrites or clears every byte it returns before anyone reads them.

const (
	minWireShift = 6  // smallest class: 64 bytes
	maxWireShift = 17 // largest class: 128 KB, above any AAL5 frame
)

// wirePools[c] holds free slices of capacity 1<<c, each stored as a
// pointer to its first byte so Put and Get allocate nothing.
var wirePools [maxWireShift + 1]sync.Pool

// wireClass returns the class serving n bytes: the smallest power of
// two at least n, and at least the minimum class.
func wireClass(n int) int {
	if n <= 1<<minWireShift {
		return minWireShift
	}
	return bits.Len(uint(n - 1))
}

// GetWire returns an n-byte slice from the wire pool, allocating when
// the pool has none free. Its contents are stale: the caller overwrites
// or clears all n bytes. Sizes above the largest class are plain
// allocations and never enter the pool.
func GetWire(n int) []byte {
	p, _ := getWire(n)
	return p
}

// getWire is GetWire, also reporting whether the slice is a new
// allocation, and so all zero.
func getWire(n int) (p []byte, fresh bool) {
	c := wireClass(n)
	if c > maxWireShift {
		return make([]byte, n), true
	}
	if p, ok := wirePools[c].Get().(*byte); ok {
		return unsafe.Slice(p, 1<<c)[:n], false
	}
	return make([]byte, n, 1<<c), true
}

// Symbolic wire buffers: a symbolic snapshot's runs are immutable
// values, but its run list is storage like a bytes snapshot's slice,
// and the receiving adapter splices the runs into its frames' own
// lists. GetWireBuf and PutWireBuf pool run lists by power-of-two
// capacity the same way.
const (
	minWireRunShift = 2 // smallest class: 4 runs
	maxWireRunShift = 6 // largest class: 64 runs
)

// wireRunPools[c] holds free run lists of capacity 1<<c, each stored as
// a pointer to its first run.
var wireRunPools [maxWireRunShift + 1]sync.Pool

// GetWireBuf returns an empty symbolic buffer whose run storage, room
// for at least runs runs, comes from the wire pool. Its owner builds a
// gather into it with AppendFrame; a gather that outgrows the storage
// gets a larger list as append gives one.
func GetWireBuf(runs int) Buf {
	c := max(minWireRunShift, bits.Len(uint(max(runs, 1)-1)))
	if c > maxWireRunShift {
		return Buf{runs: make([]Run, 0, runs)}
	}
	if p, ok := wireRunPools[c].Get().(*Run); ok {
		return Buf{runs: unsafe.Slice(p, 1<<c)[:0]}
	}
	return Buf{runs: make([]Run, 0, 1<<c)}
}

// PutWireBuf returns a symbolic buffer's run list to the pool. The
// caller must be the last holder of b and of every Buf sliced from it.
// Bytes-backed buffers and lists whose capacity is not a class size are
// left to the garbage collector.
func PutWireBuf(b Buf) {
	c := bits.Len(uint(cap(b.runs))) - 1
	if b.bytes != nil || c < minWireRunShift || c > maxWireRunShift || cap(b.runs) != 1<<c {
		return
	}
	clear(b.runs) // literal runs must not keep their bytes alive
	wireRunPools[c].Put(unsafe.SliceData(b.runs[:1]))
}

// PutWire returns a slice obtained from GetWire to the pool. The caller
// must be its last holder: nothing may read or write p afterwards.
// Slices whose capacity is not a class size are left to the garbage
// collector.
func PutWire(p []byte) {
	c := bits.Len(uint(cap(p))) - 1
	if c < minWireShift || c > maxWireShift || cap(p) != 1<<c {
		return
	}
	wirePools[c].Put(unsafe.SliceData(p[:1]))
}
