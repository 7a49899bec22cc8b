package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// obj is a recyclable test object.
type obj struct {
	dirty   bool
	resets  int
	drops   int
	failing bool
}

func (o *obj) Drop() { o.drops++ }

func (o *obj) Reset() error {
	if o.failing {
		return errors.New("leaked state")
	}
	o.dirty = false
	o.resets++
	return nil
}

// A Put object comes back Reset from the next Get for its key, and
// only for its key.
func TestRecyclerReuse(t *testing.T) {
	var r Recycler[string, *obj]
	build := func() (*obj, error) { return &obj{}, nil }
	o, err := r.Get("a", build)
	if err != nil {
		t.Fatal(err)
	}
	o.dirty = true
	r.Put("a", o)
	again, err := r.Get("a", build)
	if err != nil {
		t.Fatal(err)
	}
	if again != o || again.dirty || again.resets != 1 {
		t.Errorf("Get after Put = %p %+v, want the Put object %p Reset once", again, again, o)
	}
	if st := r.Stats(); st.Built != 1 || st.Recycled != 1 {
		t.Errorf("built %d, recycled %d; want 1 and 1", st.Built, st.Recycled)
	}
	// Keys do not share free lists.
	r.Put("a", &obj{})
	if o, _ := r.Get("b", build); o.resets != 0 {
		t.Error("key b served an object put under key a")
	}
}

// TestRecyclerSurvivesGC: a free object is held by strong reference, so
// the garbage collections that empty a sync.Pool cannot cost a rebuild.
func TestRecyclerSurvivesGC(t *testing.T) {
	var r Recycler[int, *obj]
	put := &obj{}
	r.Put(1, put)
	runtime.GC()
	runtime.GC()
	got, err := r.Get(1, func() (*obj, error) { return &obj{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != put {
		t.Error("Get after two GCs built a new object instead of recycling the Put one")
	}
	if st := r.Stats(); st.Recycled != 1 || st.Built != 0 {
		t.Errorf("stats = %+v, want 1 recycled and 0 built", st)
	}
}

// TestRecyclerResetReleasesObjects: Reset drops its free objects, and
// the sync.Pool that hands out shelves must not keep them alive for the
// two collections a pool holds what it was given. After Reset and one
// collection, every object Put before it, and one claimed and Put
// again, is unreachable. A pool holding the objects themselves keeps
// them through that collection.
func TestRecyclerResetReleasesObjects(t *testing.T) {
	var r Recycler[int, *obj]
	const n = 4
	freed := make(chan int, n)
	func() {
		for i := 0; i < n; i++ {
			o := &obj{resets: i}
			runtime.SetFinalizer(o, func(o *obj) { freed <- o.resets })
			r.Put(i%2, o)
		}
		o, err := r.Get(0, func() (*obj, error) { return nil, errors.New("built") })
		if err != nil {
			t.Fatal(err)
		}
		r.Put(0, o)
	}()
	r.Reset()
	runtime.GC()
	deadline := time.After(5 * time.Second)
	for got := 0; got < n; got++ {
		select {
		case <-freed:
		case <-deadline:
			t.Fatalf("%d of %d objects still reachable after Reset and one collection", n-got, n)
		}
	}
}

// TestRecyclerExclusive races goroutines over one key: no object is ever
// handed to two holders at once, and since a free object is never lost,
// Get builds only when every object built so far is held — at most one
// per goroutine.
func TestRecyclerExclusive(t *testing.T) {
	const (
		workers = 8
		rounds  = 1000
	)
	type held struct {
		obj
		busy atomic.Bool
	}
	var r Recycler[int, *held]
	build := func() (*held, error) { return &held{}, nil }
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h, err := r.Get(0, build)
				if err != nil {
					t.Error(err)
					return
				}
				if !h.busy.CompareAndSwap(false, true) {
					t.Error("Get handed out an object another goroutine holds")
					return
				}
				h.dirty = true
				h.busy.Store(false)
				r.Put(0, h)
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Built+st.Recycled != workers*rounds {
		t.Errorf("built %d + recycled %d != %d gets", st.Built, st.Recycled, workers*rounds)
	}
	if st.Built > workers {
		t.Errorf("built %d objects for %d concurrent holders", st.Built, workers)
	}
}

// TestRecyclerSearchesOtherShelves runs more goroutines than Ps over
// one key, with at most three holding an object at once and each
// yielding while it holds, so objects are put on one shelf and wanted
// from another. Get finds a free object on any shelf before it builds,
// so Built never exceeds the peak number of concurrent holders. A
// holder counts from before its Get until its Put returns.
func TestRecyclerSearchesOtherShelves(t *testing.T) {
	const (
		maxHolders = 3
		rounds     = 300
	)
	goroutines := 4 * runtime.GOMAXPROCS(0)
	var (
		r             Recycler[int, *obj]
		holders, peak atomic.Int64
		slots         = make(chan struct{}, maxHolders)
		wg            sync.WaitGroup
	)
	build := func() (*obj, error) { return &obj{}, nil }
	wg.Add(goroutines)
	for range goroutines {
		go func() {
			defer wg.Done()
			for range rounds {
				slots <- struct{}{}
				n := holders.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				o, err := r.Get(0, build)
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
				r.Put(0, o)
				holders.Add(-1)
				<-slots
			}
		}()
	}
	wg.Wait()
	st := r.Stats()
	if st.Built+st.Recycled != uint64(goroutines*rounds) {
		t.Errorf("built %d + recycled %d != %d gets", st.Built, st.Recycled, goroutines*rounds)
	}
	if p := uint64(peak.Load()); st.Built > p {
		t.Errorf("built %d objects for a peak of %d concurrent holders", st.Built, p)
	}
	if len(r.list()) < 2 {
		t.Logf("only %d shelf was made; the cross-shelf search went untested", len(r.list()))
	}
}

// TestRecyclerBounded puts objects under 1,000 distinct keys, two each,
// from one goroutine: a shelf keeps at most maxRecycleKeys pairs, so the
// count its shelves retain stays within two objects per key of the bound
// after every Put. Eviction is least recently used: key 0, got and put
// back before every new key, keeps its objects to the end, while key 1
// is dropped and its object, no longer held by its shelf, is collected.
func TestRecyclerBounded(t *testing.T) {
	const keys = 1000
	var r Recycler[int, *obj]
	build := func() (*obj, error) { return &obj{}, nil }
	first := &obj{}
	r.Put(0, first)
	freed := make(chan struct{}, 1)
	func() {
		o := &obj{}
		runtime.SetFinalizer(o, func(*obj) { freed <- struct{}{} })
		r.Put(1, o)
	}()
	for k := 2; k < keys; k++ {
		o, err := r.Get(0, build)
		if err != nil {
			t.Fatal(err)
		}
		r.Put(0, o)
		r.Put(k, &obj{})
		r.Put(k, &obj{})
		n := 0
		for _, sh := range r.list() {
			n += len(sh.free)
		}
		if n > 2*maxRecycleKeys {
			t.Fatalf("after key %d the recycler retains %d objects, want at most %d (%d keys)", k, n, 2*maxRecycleKeys, maxRecycleKeys)
		}
	}
	if o, _ := r.Get(0, build); o != first {
		t.Error("the most recently used key lost its free object to eviction")
	}
	if o, _ := r.Get(keys-1, build); o.resets != 1 {
		t.Error("the newest key has no free object")
	}
	if o, _ := r.Get(1, func() (*obj, error) { return nil, nil }); o != nil {
		t.Error("key 1, least recently used, was not evicted")
	}
	if st := r.Stats(); st.Built != 1 {
		t.Errorf("built %d objects, want 1 (key 1's evicted object gone)", st.Built)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Error("the evicted key's object is still reachable after a collection")
	}
}

// An object whose Reset fails is dropped and counted, never reused.
func TestRecyclerDropsFailedReset(t *testing.T) {
	var r Recycler[int, *obj]
	bad := &obj{failing: true}
	r.Put(1, bad)
	if st := r.Stats(); st.ResetFailures != 1 {
		t.Errorf("reset failures = %d, want 1", st.ResetFailures)
	}
	o, err := r.Get(1, func() (*obj, error) { return &obj{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if o == bad {
		t.Error("Get handed out an object whose Reset failed")
	}
	r.Reset()
	if st := r.Stats(); st != (RecycleStats{}) {
		t.Errorf("stats after Reset = %+v", st)
	}
}

// A Slot hands back its held object, Reset, for the key it was built
// for, and drops it before it builds for another key, after a failed
// Reset, and when told to; a failed build leaves the slot empty.
func TestSlotReusesByKey(t *testing.T) {
	var s Slot[string, *obj]
	var built []*obj
	build := func() (*obj, error) {
		o := &obj{}
		built = append(built, o)
		return o, nil
	}
	a, _ := s.Get("a", build)
	a.dirty = true
	if again, _ := s.Get("a", build); again != a || a.dirty || a.resets != 1 {
		t.Errorf("second get for a = %p %+v, want the held object %p Reset once", again, again, a)
	}
	b, _ := s.Get("b", build)
	if b == a || a.drops != 1 || b.resets != 0 {
		t.Errorf("get for b: got %p (a %p dropped %d times), want a new object after a is dropped", b, a, a.drops)
	}
	b.failing = true
	if c, _ := s.Get("b", build); c == b || b.drops != 1 {
		t.Errorf("get after a failed Reset returned %p (held %p dropped %d times), want a new build", c, b, b.drops)
	}
	boom := errors.New("boom")
	if _, err := s.Get("c", func() (*obj, error) { return &obj{}, boom }); err != boom {
		t.Errorf("failed build: err %v, want %v", err, boom)
	}
	s.Drop()
	for i, o := range built {
		if o.drops != 1 {
			t.Errorf("object %d dropped %d times, want once", i, o.drops)
		}
	}
	if want := (RecycleStats{Built: 3, Recycled: 1, ResetFailures: 1}); s.st != want {
		t.Errorf("stats = %+v, want %+v", s.st, want)
	}
}

// tally counts the objects a test's slots build and hold.
type tally struct {
	mu         sync.Mutex
	built      []*obj
	live, peak int
}

// liveObj is an obj whose build and Drop its tally counts.
type liveObj struct {
	*obj
	tally *tally
}

func (o liveObj) Drop() {
	o.tally.mu.Lock()
	o.tally.live--
	o.tally.mu.Unlock()
	o.obj.Drop()
}

func (tl *tally) build() (liveObj, error) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	o := &obj{}
	tl.built = append(tl.built, o)
	tl.live++
	tl.peak = max(tl.peak, tl.live)
	return liveObj{o, tl}, nil
}

// EachSlot gives each worker one slot and drops every object before it
// returns, on the error path too. Over points in key order, a serial run
// builds one object per key; a parallel run builds at most one per key
// per worker, holds at most one per worker at a time, and takes one
// object per point.
func TestEachSlotOwnsItsObjects(t *testing.T) {
	const n, keys, workers = 64, 4, 3
	run := func(workers, failAt int) (*tally, RecycleStats, error) {
		tl := &tally{}
		st, err := EachSlot(n, workers, func(s *Slot[int, liveObj], i int) error {
			if _, err := s.Get(i*keys/n, tl.build); err != nil {
				return err
			}
			if i == failAt {
				return errors.New("point failed")
			}
			return nil
		})
		for _, o := range tl.built {
			if o.drops != 1 {
				t.Errorf("workers=%d: an object was dropped %d times, want once", workers, o.drops)
			}
		}
		if tl.live != 0 || tl.peak > workers {
			t.Errorf("workers=%d: %d objects held after the run and %d at once, want 0 and at most %d", workers, tl.live, tl.peak, workers)
		}
		return tl, st, err
	}
	for _, w := range []int{1, workers} {
		tl, st, err := run(w, -1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Built != uint64(len(tl.built)) || st.Built+st.Recycled != n || st.Built > uint64(keys*w) {
			t.Errorf("workers=%d: stats %+v for %d builds, want at most %d built and %d gets", w, st, len(tl.built), keys*w, n)
		}
		if w == 1 && st.Built != keys {
			t.Errorf("serial: built %d, want one per key (%d)", st.Built, keys)
		}
	}
	if _, _, err := run(workers, n/2); err == nil {
		t.Fatal("a failing point did not fail the run")
	}
}

// TestEachErrorDeterminism: when several racing workers hit failing
// indices, Each must return the lowest-index failure — the one the
// serial loop would have stopped at — no matter which worker reached it
// first, and must not abandon indices before it.
func TestEachErrorDeterminism(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 2, 8} {
		for round := 0; round < 20; round++ {
			var ran [n]atomic.Bool
			err := Each(n, workers, func(_, i int) error {
				ran[i].Store(true)
				if i == 17 || i == 40 {
					return fmt.Errorf("index %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "index 17 failed" {
				t.Fatalf("workers=%d: err = %v, want the lowest failing index (17)", workers, err)
			}
			for i := 0; i <= 17; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d: index %d before the failure never ran", workers, i)
				}
			}
		}
	}
}

// Each clamps its workers to [1, n] (<= 0 meaning GOMAXPROCS), runs a
// single worker inline on the caller's goroutine as worker 0, covers
// every index exactly once, and names each call's worker by an index
// below the clamped count that no concurrent call shares. Goroutines
// left over from earlier calls may still be exiting, which can only
// lower the count against base, so the checks are upper bounds.
func TestEachClampsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	inline := true
	if err := Each(5, 1, func(w, _ int) error {
		inline = inline && runtime.NumGoroutine() <= base && w == 0
		return nil
	}); err != nil || !inline {
		t.Errorf("one worker: err %v, ran inline %v", err, inline)
	}

	for _, tc := range []struct{ n, workers, max int }{
		{3, 64, 3},
		{100, 0, runtime.GOMAXPROCS(0)},
		{100, -1, runtime.GOMAXPROCS(0)},
	} {
		var hits [100]atomic.Int32
		busy := make([]atomic.Bool, tc.max)
		var peak atomic.Int64
		base := runtime.NumGoroutine()
		err := Each(tc.n, tc.workers, func(w, i int) error {
			if w < 0 || w >= tc.max {
				return fmt.Errorf("index %d: worker %d outside [0, %d)", i, w, tc.max)
			}
			if busy[w].Swap(true) {
				return fmt.Errorf("index %d: worker %d already in a call", i, w)
			}
			defer busy[w].Store(false)
			hits[i].Add(1)
			for g := int64(runtime.NumGoroutine() - base); ; {
				p := peak.Load()
				if g <= p || peak.CompareAndSwap(p, g) {
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := peak.Load(); p > int64(tc.max) {
			t.Errorf("n=%d workers=%d: %d goroutines, want at most %d", tc.n, tc.workers, p, tc.max)
		}
		for i := 0; i < tc.n; i++ {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, h)
			}
		}
	}
}

func TestEachEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if err := Each(0, workers, func(int, int) error {
			t.Fatal("fn called for n = 0")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
