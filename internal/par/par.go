// Package par holds the harness's three work-saving mechanisms: a
// single-flight memo of simulated points (Memo), free lists of Reset
// simulation objects that garbage collection never empties (Recycler),
// and an index-claiming fan-out over
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

// Reset discards every entry and zeroes the counters. The stripes'
// maps keep their tables, so a memo refilled to the same size after a
// Reset does not regrow them.
func (m *Memo[K, V]) Reset() {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		clear(s.entries)
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

// Recycler keeps free lists of Reset objects, one per key, so that an
// expensive object graph is built once per configuration and reused.
// Reset must return the object to a state indistinguishable from a
// fresh build.
//
// At most maxRecycleKeys keys keep a free list: a Put under a new key
// beyond that drops the list of the key least recently got or put,
// emptying its boxes, so a process that visits ever new configurations
// holds a bounded number of objects.
//
// Each key's free set holds its objects by strong reference, so a Reset
// object is never lost to garbage collection. A sync.Pool per key rides
// alongside only as a locality hint: Get prefers the object the pool
// hands back, which is usually one last used on the same P, and claims
// it only if it is still in the free set. Objects the pool drops at a
// GC, or still holds after the free set gave them out, cost nothing
// but a retry. The pool holds each free object through a box that is
// emptied when the object leaves the free set, by Get or by Reset: a
// sync.Pool keeps what it holds for up to two collections, which must
// not keep a dropped object graph alive. Emptied boxes are kept for the
// key's next Put; a stale copy the pool still holds then points at an
// object that is free again, and a hint that claims a free object is
// as good as any.
type Recycler[K comparable, T interface {
	comparable
	Reset() error
}] struct {
	mu    sync.Mutex
	lists map[K]*freeList[T]
	tick  uint64 // counts list uses, ordering them for eviction

	built, recycled, resetFailures atomic.Uint64
}

// maxRecycleKeys bounds the keys that keep a free list. It covers every
// configuration one geniebench subcommand recycles (bigsweep, the
// widest, uses 53), so none of their recycle counts depend on it.
const maxRecycleKeys = 64

// freeList is one key's free objects: the set is the source of truth,
// the pool a per-P hint that may hold stale boxes.
type freeList[T comparable] struct {
	free  map[T]*hintBox[T] // each free object and its box in the pool
	hint  sync.Pool
	boxes []*hintBox[T] // emptied boxes, for the next Put
	used  uint64        // the Recycler's tick at the list's last use
}

// hintBox is what the hint pool holds for a free object; an emptied box
// holds the zero T, which is never free.
type hintBox[T any] struct{ t T }

// take removes t from the free set and empties its box, reporting
// whether t was free.
func (l *freeList[T]) take(t T) bool {
	b, free := l.free[t]
	if free {
		*b = hintBox[T]{}
		delete(l.free, t)
		l.boxes = append(l.boxes, b)
	}
	return free
}

// list returns key's free list, marking it used; with create it makes a
// missing one, first dropping the least recently used list if the
// Recycler is at its bound. Callers hold r.mu.
func (r *Recycler[K, T]) list(key K, create bool) *freeList[T] {
	r.tick++
	l := r.lists[key]
	switch {
	case l != nil:
	case !create:
		return nil
	default:
		if len(r.lists) >= maxRecycleKeys {
			r.evict()
		}
		if r.lists == nil {
			r.lists = map[K]*freeList[T]{}
		}
		l = &freeList[T]{free: map[T]*hintBox[T]{}}
		r.lists[key] = l
	}
	l.used = r.tick
	return l
}

// evict drops the least recently used free list, emptying its boxes.
// Callers hold r.mu.
func (r *Recycler[K, T]) evict() {
	var (
		oldest K
		lru    *freeList[T]
	)
	for k, l := range r.lists {
		if lru == nil || l.used < lru.used {
			oldest, lru = k, l
		}
	}
	for t := range lru.free {
		lru.take(t)
	}
	delete(r.lists, oldest)
}

// claim removes and returns a free object for key, preferring the one
// the pool hint hands back.
func (r *Recycler[K, T]) claim(key K) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l := r.list(key, false); l != nil {
		for v := l.hint.Get(); v != nil; v = l.hint.Get() {
			if t := v.(*hintBox[T]).t; l.take(t) {
				return t, true
			}
		}
		for t := range l.free {
			l.take(t)
			return t, true
		}
	}
	var zero T
	return zero, false
}

// Get returns a Reset object for key from the free list, or calls build
// when none is free.
func (r *Recycler[K, T]) Get(key K, build func() (T, error)) (T, error) {
	if !recyclingOff.Load() {
		if t, ok := r.claim(key); ok {
			r.recycled.Add(1)
			return t, nil
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
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.list(key, true)
	var b *hintBox[T]
	if k := len(l.boxes) - 1; k >= 0 {
		b = l.boxes[k]
		l.boxes[k] = nil
		l.boxes = l.boxes[:k]
	} else {
		b = new(hintBox[T])
	}
	b.t = t
	l.free[t] = b
	l.hint.Put(b)
}

// Stats returns the recycler's counters.
func (r *Recycler[K, T]) Stats() RecycleStats {
	return RecycleStats{
		Built:         r.built.Load(),
		Recycled:      r.recycled.Load(),
		ResetFailures: r.resetFailures.Load(),
	}
}

// Reset drops every free list, emptying the boxes the hint pools may
// still hold, and zeroes the counters.
func (r *Recycler[K, T]) Reset() {
	r.mu.Lock()
	for _, l := range r.lists {
		for t := range l.free {
			l.take(t)
		}
	}
	r.lists = nil
	r.tick = 0
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
