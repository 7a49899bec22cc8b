package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func identityHash(k int) uint64 { return uint64(k) }

// TestMemoSingleFlight asserts that concurrent callers asking for the
// same key compute it exactly once: one miss, and every other caller
// either waits on the in-flight computation or hits the completed
// entry. Run under -race this also locks in the entry lifecycle.
func TestMemoSingleFlight(t *testing.T) {
	const workers = 16
	m := NewMemo[int, []int](identityHash)
	var computed atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]int, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = m.Do(7, func() ([]int, error) {
				computed.Add(1)
				<-release
				return []int{7, 49}, nil
			})
		}(i)
	}
	close(release)
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &results[i][0] != &results[0][0] {
			t.Fatalf("worker %d got its own value, want the shared one", i)
		}
	}
	if got := computed.Load(); got != 1 {
		t.Errorf("computed %d times, want 1 (single-flight)", got)
	}
	st := m.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Waits != workers-1 {
		t.Errorf("hits+waits = %d, want %d", st.Hits+st.Waits, workers-1)
	}
}

// A failing computation is deterministic, so its error is memoized like
// a value; distinct keys stay distinct.
func TestMemoMemoizesErrors(t *testing.T) {
	m := NewMemo[int, int](identityHash)
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	for i := 0; i < 3; i++ {
		if _, err := m.Do(1, fail); !errors.Is(err, boom) {
			t.Fatalf("probe %d: err = %v, want %v", i, err, boom)
		}
	}
	if v, err := m.Do(2, func() (int, error) { calls++; return 4, nil }); err != nil || v != 4 {
		t.Fatalf("key 2 = %d, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("computed %d times, want once per key", calls)
	}
	if st := m.Stats(); st != (MemoStats{Hits: 2, Misses: 2}) {
		t.Errorf("stats = %+v", st)
	}
	m.Reset()
	if st := m.Stats(); st != (MemoStats{}) {
		t.Errorf("stats after Reset = %+v", st)
	}
	if _, err := m.Do(1, func() (int, error) { calls++; return 1, nil }); err != nil || calls != 3 {
		t.Errorf("Reset kept the memoized error: err %v, calls %d", err, calls)
	}
}

// With the memo switched off every call computes and counts a miss, and
// entries made before the switch serve again once it is back on.
func TestMemoSwitchOffBypasses(t *testing.T) {
	m := NewMemo[int, int](identityHash)
	calls := 0
	compute := func() (int, error) { calls++; return calls, nil }
	if v, _ := m.Do(5, compute); v != 1 {
		t.Fatalf("first Do = %d", v)
	}
	was := SetMemo(false)
	if !was {
		t.Fatal("memo was off before the test")
	}
	for want := 2; want <= 3; want++ {
		if v, _ := m.Do(5, compute); v != want {
			t.Errorf("memo off: Do = %d, want a fresh computation %d", v, want)
		}
	}
	if SetMemo(true) {
		t.Error("SetMemo(false) did not switch the memo off")
	}
	if v, _ := m.Do(5, compute); v != 1 {
		t.Errorf("memo back on: Do = %d, want the entry made before (1)", v)
	}
	if st := m.Stats(); st != (MemoStats{Hits: 1, Misses: 3}) {
		t.Errorf("stats = %+v, want 1 hit and 3 misses", st)
	}
}

// obj is a recyclable test object.
type obj struct {
	dirty   bool
	resets  int
	failing bool
}

func (o *obj) Reset() error {
	if o.failing {
		return errors.New("leaked state")
	}
	o.dirty = false
	o.resets++
	return nil
}

// A Put object comes back Reset from Get. sync.Pool may drop any Put
// (under -race it drops a quarter of them on purpose), so the test
// retries before declaring reuse broken.
func TestRecyclerReuse(t *testing.T) {
	var r Recycler[string, *obj]
	build := func() (*obj, error) { return &obj{}, nil }
	gets := uint64(0)
	for attempt := 0; attempt < 20; attempt++ {
		o, err := r.Get("a", build)
		gets++
		if err != nil {
			t.Fatal(err)
		}
		if o.dirty {
			t.Fatal("Get returned an object that was not Reset")
		}
		if o.resets > 0 {
			break
		}
		o.dirty = true
		r.Put("a", o)
	}
	st := r.Stats()
	if st.Recycled == 0 {
		t.Error("no object recycled across 20 Put/Get pairs")
	}
	if st.Built+st.Recycled != gets {
		t.Errorf("built %d + recycled %d != %d gets", st.Built, st.Recycled, gets)
	}
	// Keys do not share free lists.
	r.Put("a", &obj{})
	if o, _ := r.Get("b", build); o.resets != 0 {
		t.Error("key b served an object put under key a")
	}
}

// An object whose Reset fails is dropped and counted, never reused; with
// recycling off, Get always builds and Put drops without resetting.
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

	defer SetRecycling(SetRecycling(false))
	good := &obj{}
	r.Put(1, good)
	if good.resets != 0 {
		t.Error("Put reset an object while recycling was off")
	}
	if o, _ := r.Get(1, func() (*obj, error) { return &obj{}, nil }); o == good {
		t.Error("Get recycled while recycling was off")
	}
	r.Reset()
	if st := r.Stats(); st != (RecycleStats{}) {
		t.Errorf("stats after Reset = %+v", st)
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
			err := Each(n, workers, func(i int) error {
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
// single worker inline on the caller's goroutine, and covers every
// index exactly once. Goroutines left over from earlier calls may still
// be exiting, which can only lower the count against base, so the
// checks are upper bounds.
func TestEachClampsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	inline := true
	if err := Each(5, 1, func(int) error {
		inline = inline && runtime.NumGoroutine() <= base
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
		var peak atomic.Int64
		base := runtime.NumGoroutine()
		err := Each(tc.n, tc.workers, func(i int) error {
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
		if err := Each(0, workers, func(int) error {
			t.Fatal("fn called for n = 0")
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
