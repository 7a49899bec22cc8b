// Package par holds the harness's three work-saving mechanisms: a
// single-flight memo of simulated points (Memo), a free list of Reset
// simulation objects (Recycler), and an index-claiming fan-out over
// worker goroutines (Each). Every sweep recycles and fans out; only the
// pairwise measurement path memoizes, because only there do generators
// ask for the same point again.
//
// None of them may change a result. A simulated point is a pure function
// of its key, a Reset object simulates bit-identically to a fresh one,
// and Each reports the error the serial loop would have returned, so
// every sweep prints the same bytes with the memo and recycling on or
// off (SetMemo, SetRecycling) and at any worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The process-wide switches, one per mechanism; both default to on.
var memoOff, recyclingOff atomic.Bool

// SetMemo turns every Memo on or off and returns the previous setting.
// While off, Do computes every call and memoizes nothing; entries made
// before stay and serve again once the memo is back on.
func SetMemo(on bool) (was bool) { return !memoOff.Swap(!on) }

// SetRecycling turns every Recycler on or off and returns the previous
// setting. While off, Get always builds and Put drops its object.
func SetRecycling(on bool) (was bool) { return !recyclingOff.Swap(!on) }

// MemoStats counts Memo.Do calls by how they were served.
type MemoStats struct {
	Hits   uint64 // served by a completed entry
	Misses uint64 // computed the value (every call while the memo is off)
	Waits  uint64 // blocked on another caller computing the same key
}

// A Memo has 1<<memoStripeBits lock-striped segments; 32 keep contention
// negligible at any worker count while each map stays dense.
const (
	memoStripeBits = 5
	memoStripes    = 1 << memoStripeBits
)

// memoEntry is one memoized value. done is closed once v and err are
// final; until then, later callers for the same key block on it.
type memoEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

type memoStripe[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

// Memo is a lock-striped, single-flight memo: the first caller for a key
// computes the value, concurrent callers for that key wait for it, and
// later callers share it. Errors are memoized like values, because the
// computations it serves are deterministic. Memoized values are shared
// by reference and must be treated as immutable. A Memo is safe for
// concurrent use.
type Memo[K comparable, V any] struct {
	hash    func(K) uint64
	stripes [memoStripes]memoStripe[K, V]

	hits, misses, waits atomic.Uint64
}

// NewMemo returns an empty memo. hash spreads keys over the stripes; it
// need not be well mixed, and equal keys must hash equally. Equality is
// decided by the full key.
func NewMemo[K comparable, V any](hash func(K) uint64) *Memo[K, V] {
	m := &Memo[K, V]{hash: hash}
	for i := range m.stripes {
		m.stripes[i].entries = make(map[K]*memoEntry[V])
	}
	return m
}

// Do returns the memoized value for key, calling compute on a miss.
func (m *Memo[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	if memoOff.Load() {
		m.misses.Add(1)
		return compute()
	}
	// Fibonacci hashing: the top bits of the product pick the stripe.
	s := &m.stripes[(m.hash(key)*0x9E3779B97F4A7C15)>>(64-memoStripeBits)]
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
			m.hits.Add(1)
		default:
			m.waits.Add(1)
			<-e.done
		}
		return e.v, e.err
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	m.misses.Add(1)
	e.v, e.err = compute()
	close(e.done)
	return e.v, e.err
}

// Stats returns the memo's counters.
func (m *Memo[K, V]) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Waits: m.waits.Load()}
}

// Reset discards every entry and zeroes the counters.
func (m *Memo[K, V]) Reset() {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		s.entries = make(map[K]*memoEntry[V])
		s.mu.Unlock()
	}
	m.hits.Store(0)
	m.misses.Store(0)
	m.waits.Store(0)
}

// RecycleStats counts Recycler traffic.
type RecycleStats struct {
	Built         uint64 // objects constructed by Get
	Recycled      uint64 // Get calls served from a free list
	ResetFailures uint64 // objects Put dropped because Reset failed
}

// Recycler keeps free lists of Reset objects, one *sync.Pool per key, so
// that an expensive object graph is built once per configuration and
// reused. sync.Pool gives each P its own lock-free list and may drop
// objects at any GC, so a Recycler only ever saves work. Reset must
// return the object to a state indistinguishable from a fresh build.
type Recycler[K comparable, T interface{ Reset() error }] struct {
	mu    sync.Mutex
	pools map[K]*sync.Pool

	built, recycled, resetFailures atomic.Uint64
}

// pool returns the free list for key, creating it if create is set.
func (r *Recycler[K, T]) pool(key K, create bool) *sync.Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pools[key]
	if p == nil && create {
		if r.pools == nil {
			r.pools = make(map[K]*sync.Pool)
		}
		p = &sync.Pool{}
		r.pools[key] = p
	}
	return p
}

// Get returns a Reset object for key from the free list, or calls build
// when none is free.
func (r *Recycler[K, T]) Get(key K, build func() (T, error)) (T, error) {
	if !recyclingOff.Load() {
		if p := r.pool(key, false); p != nil {
			if v := p.Get(); v != nil {
				r.recycled.Add(1)
				return v.(T), nil
			}
		}
	}
	t, err := build()
	if err == nil {
		r.built.Add(1)
	}
	return t, err
}

// Put resets t and adds it to the free list for key. An object whose
// Reset fails is dropped and counted; while recycling is off, Put drops
// every object.
func (r *Recycler[K, T]) Put(key K, t T) {
	if recyclingOff.Load() {
		return
	}
	if err := t.Reset(); err != nil {
		r.resetFailures.Add(1)
		return
	}
	r.pool(key, true).Put(t)
}

// Stats returns the recycler's counters.
func (r *Recycler[K, T]) Stats() RecycleStats {
	return RecycleStats{
		Built:         r.built.Load(),
		Recycled:      r.recycled.Load(),
		ResetFailures: r.resetFailures.Load(),
	}
}

// Reset drops every free list and zeroes the counters.
func (r *Recycler[K, T]) Reset() {
	r.mu.Lock()
	r.pools = nil
	r.mu.Unlock()
	r.built.Store(0)
	r.recycled.Store(0)
	r.resetFailures.Store(0)
}

// Each calls fn(i) for every i in [0, n) across workers goroutines that
// claim indices in increasing order; workers <= 0 means GOMAXPROCS, and
// the count is clamped to [1, n]. With one worker the loop runs inline.
// fn writes its result to caller-owned index-i storage, so distinct
// indices never race. Each returns the error of the lowest failing index,
// which is the error the serial loop returns. Every index below it runs;
// indices above it may be skipped.
func Each(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	next.Store(-1)
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				mu.Lock()
				abandoned := i > errIdx
				mu.Unlock()
				if abandoned {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
