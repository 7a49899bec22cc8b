// Package par holds the work-saving mechanisms that more than one
// package uses: per-P shelves of Reset simulation objects that garbage
// collection never empties (Recycler, switched by SetRecycling), and an
// index-claiming fan-out over worker goroutines (Each).
//
// Neither may change a result. A Reset object simulates bit-identically
// to a fresh one, and Each reports the error the serial loop would have
// returned, so every sweep prints the same bytes with recycling on or
// off and at any worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// recyclingOff is the process-wide recycling switch; it defaults to on.
var recyclingOff atomic.Bool

// SetRecycling turns every Recycler on or off and returns the previous
// setting. While off, Get always builds and Put drops its object.
func SetRecycling(on bool) (was bool) { return !recyclingOff.Swap(!on) }

// Recycling reports whether recycling is on: whether a user of objects
// it keeps for reuse should keep them (SetRecycling).
func Recycling() bool { return !recyclingOff.Load() }

// RecycleStats counts Recycler traffic.
type RecycleStats struct {
	Built         uint64 // objects constructed by Get
	Recycled      uint64 // Get calls served by a shelved object
	ResetFailures uint64 // objects Put dropped because Reset failed
}

// Recycler keeps Reset objects for reuse, keyed by configuration, so
// that an expensive object graph is built once per configuration and
// reused. Reset must return the object to a state indistinguishable
// from a fresh build.
//
// Free objects wait on shelves: short lists of (key, object) pairs, at
// most maxRecycleKeys each, newest last. A shelf belongs to whoever
// wins its busy flag, and is held only to scan or edit its list, never
// across a build or a Reset. A sync.Pool hands each Get and Put a
// shelf, usually the one last used on the same P, so a worker gets back
// the object it put last and the per-call path takes no shared lock and
// writes no shared cache line: each shelf keeps its own counters, which
// Stats sums.
//
// The pool is only a locality hint. The registry holds every shelf by
// strong reference, so a Reset object is never lost to garbage
// collection, and Get searches every other shelf before it builds. A
// Put beyond a shelf's bound drops the shelf's oldest pair, so a
// process that visits ever new configurations holds a bounded number of
// objects per shelf, and shelves are made only when every registered
// one is busy.
type Recycler[K comparable, T interface{ Reset() error }] struct {
	pool    sync.Pool                      // *shelf[K, T], per-P
	mu      sync.Mutex                     // serializes registry growth
	shelves atomic.Pointer[[]*shelf[K, T]] // every shelf made; only grows
}

// maxRecycleKeys bounds the pairs one shelf keeps. It covers every
// configuration one geniebench subcommand recycles (the default sweep,
// the widest, uses 16), so none of their serial recycle counts depend
// on it.
const maxRecycleKeys = 64

// shelf is one list of free objects and the counters of the calls that
// used it.
type shelf[K comparable, T any] struct {
	busy atomic.Bool
	// puts counts the Puts that added to free; a search that sees no
	// shelf's count move knows it missed no object.
	puts                           atomic.Uint64
	built, recycled, resetFailures atomic.Uint64
	free                           []pair[K, T] // least recently put first
	_                              [64]byte     // keeps shelves' hot words on their own cache lines
}

type pair[K comparable, T any] struct {
	key K
	t   T
}

// take removes and returns the newest free object for key. The caller
// owns s.
func (s *shelf[K, T]) take(key K) (T, bool) {
	for i := len(s.free) - 1; i >= 0; i-- {
		if s.free[i].key == key {
			t := s.free[i].t
			n := copy(s.free[i:], s.free[i+1:])
			s.free[i+n] = pair[K, T]{}
			s.free = s.free[:i+n]
			return t, true
		}
	}
	var zero T
	return zero, false
}

// put adds t under key, dropping the oldest pair if s is full. The
// caller owns s.
func (s *shelf[K, T]) put(key K, t T) {
	s.puts.Add(1)
	if n := len(s.free); n == maxRecycleKeys {
		copy(s.free, s.free[1:])
		s.free[n-1] = pair[K, T]{}
		s.free = s.free[:n-1]
	}
	s.free = append(s.free, pair[K, T]{key, t})
}

// lock spins until the caller owns s; owners hold a shelf only for a
// list scan.
func (s *shelf[K, T]) lock() {
	for !s.busy.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}

// list returns every registered shelf.
func (r *Recycler[K, T]) list() []*shelf[K, T] {
	if l := r.shelves.Load(); l != nil {
		return *l
	}
	return nil
}

// own returns a shelf the caller owns: the pool's, or else any idle
// registered one, or else a new one.
func (r *Recycler[K, T]) own() *shelf[K, T] {
	if s, _ := r.pool.Get().(*shelf[K, T]); s != nil && s.busy.CompareAndSwap(false, true) {
		return s
	}
	for _, s := range r.list() {
		if s.busy.CompareAndSwap(false, true) {
			return s
		}
	}
	s := new(shelf[K, T])
	s.busy.Store(true)
	r.mu.Lock()
	old := r.list()
	l := append(old[:len(old):len(old)], s)
	r.shelves.Store(&l)
	r.mu.Unlock()
	return s
}

// release gives up s and hands it to this P's pool.
func (r *Recycler[K, T]) release(s *shelf[K, T]) {
	s.busy.Store(false)
	r.pool.Put(s)
}

// search claims a free object for key from any shelf. A pass that finds
// none repeats until no shelf's put count, nor the registry, moved
// during it: every object built so far is then held by a caller, so a
// build never exceeds the peak number of concurrent holders.
func (r *Recycler[K, T]) search(key K) (T, bool) {
	for {
		l := r.list()
		var puts uint64
		for _, s := range l {
			s.lock()
			puts += s.puts.Load()
			t, ok := s.take(key)
			s.busy.Store(false)
			if ok {
				return t, true
			}
		}
		now := r.list()
		for _, s := range now {
			puts -= s.puts.Load()
		}
		if puts == 0 && len(now) == len(l) {
			var zero T
			return zero, false
		}
	}
}

// Get returns a Reset object for key from a shelf, or calls build when
// none is free.
func (r *Recycler[K, T]) Get(key K, build func() (T, error)) (T, error) {
	s := r.own()
	var (
		t  T
		ok bool
	)
	on := !recyclingOff.Load()
	if on {
		t, ok = s.take(key)
	}
	r.release(s)
	if on && !ok {
		t, ok = r.search(key)
	}
	if ok {
		s.recycled.Add(1)
		return t, nil
	}
	t, err := build()
	if err == nil {
		s.built.Add(1)
	}
	return t, err
}

// Put resets t and shelves it under key. An object whose Reset fails is
// dropped and counted; while recycling is off, Put drops every object.
func (r *Recycler[K, T]) Put(key K, t T) {
	if recyclingOff.Load() {
		return
	}
	err := t.Reset()
	s := r.own()
	if err != nil {
		s.resetFailures.Add(1)
	} else {
		s.put(key, t)
	}
	r.release(s)
}

// Stats returns the recycler's counters, summed over its shelves.
func (r *Recycler[K, T]) Stats() RecycleStats {
	var st RecycleStats
	for _, s := range r.list() {
		st.Built += s.built.Load()
		st.Recycled += s.recycled.Load()
		st.ResetFailures += s.resetFailures.Load()
	}
	return st
}

// Reset empties every shelf, so the objects it held become garbage, and
// zeroes the counters.
func (r *Recycler[K, T]) Reset() {
	for _, s := range r.list() {
		s.lock()
		clear(s.free)
		s.free = s.free[:0]
		s.built.Store(0)
		s.recycled.Store(0)
		s.resetFailures.Store(0)
		s.busy.Store(false)
	}
}

// Each calls fn(w, i) for every i in [0, n) across workers goroutines
// that claim indices in increasing order; workers <= 0 means
// GOMAXPROCS, and the count is clamped to [1, n]. w in [0, workers)
// names the goroutine making the call, so fn may keep per-worker state
// in caller-owned index-w storage. With one worker the loop runs inline
// as worker 0. fn writes its result to caller-owned index-i storage, so
// distinct indices never race. Each returns the error of the lowest
// failing index, which is the error the serial loop returns. Every
// index below it runs; indices above it may be skipped.
func Each(n, workers int, fn func(w, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		errIdx atomic.Int64 // the lowest failing index so far; only falls
		mu     sync.Mutex   // serializes failures
		first  error
		wg     sync.WaitGroup
	)
	next.Store(-1)
	errIdx.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(n) || i > errIdx.Load() {
					return
				}
				if err := fn(w, int(i)); err != nil {
					mu.Lock()
					if i < errIdx.Load() {
						errIdx.Store(i)
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
