package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine clock = %v, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
	if got := e.Run(); got != 0 {
		t.Fatalf("Run on empty engine = %v, want 0", got)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final clock = %v, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events fired out of schedule order: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v, want [10 15]", hits)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v for cancelled event", e.Now())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(10, func() { order = append(order, 1) })
	ev := e.Schedule(20, func() { order = append(order, 2) })
	e.Schedule(30, func() { order = append(order, 3) })
	ev.Cancel()
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("order = %v, want [1 3]", order)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	e.Schedule(100, func() {
		e.Schedule(-50, func() {
			if e.Now() != 100 {
				t.Errorf("negative-delay event fired at %v, want 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := New()
	e.Schedule(100, func() {
		e.ScheduleAt(10, func() {
			if e.Now() != 100 {
				t.Errorf("past event fired at %v, want 100", e.Now())
			}
		})
	})
	e.Run()
}

func TestStepsCounter(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.Schedule(1, func() {})
	}
	e.Run()
	if e.Steps() != 5 {
		t.Fatalf("Steps = %d, want 5", e.Steps())
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(100)
	if tm.Add(Micros(50)) != 150 {
		t.Fatal("Add")
	}
	if Time(150).Sub(tm) != 50 {
		t.Fatal("Sub")
	}
	if !tm.Before(150) || !Time(150).After(tm) {
		t.Fatal("Before/After")
	}
	if tm.Max(200) != 200 || Time(300).Max(tm) != 300 {
		t.Fatal("Max")
	}
	if Millis(2).Micros() != 2000 {
		t.Fatal("Millis→Micros")
	}
	if Duration(5e6).Seconds() != 5 {
		t.Fatal("Seconds")
	}
	if Duration(1500).Millis() != 1.5 {
		t.Fatal("Millis")
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// the order in which they were scheduled.
func TestPropertyMonotonicClock(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := New()
		var times []Time
		for _, d := range delays {
			e.Schedule(Duration(d), func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Run visits every scheduled, non-cancelled event exactly once.
func TestPropertyAllEventsFire(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		total := int(n)
		fired := 0
		cancelled := 0
		for i := 0; i < total; i++ {
			ev := e.Schedule(Duration(rng.Intn(1000)), func() { fired++ })
			if rng.Intn(4) == 0 {
				ev.Cancel()
				cancelled++
			}
		}
		e.Run()
		return fired == total-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// RunBefore must discard a run of cancelled events in a single pass —
// every cancelled event is popped and recycled exactly once — while
// firing the surviving events in order and stopping at the bound.
func TestRunBeforeSkipsCancelledSinglePass(t *testing.T) {
	e := New()
	var order []int
	c1 := e.Schedule(5, func() { order = append(order, -1) })
	c2 := e.Schedule(10, func() { order = append(order, -2) })
	e.Schedule(15, func() { order = append(order, 1) })
	c3 := e.Schedule(20, func() { order = append(order, -3) })
	e.Schedule(25, func() { order = append(order, 2) })
	e.Schedule(40, func() { order = append(order, 3) })
	c1.Cancel()
	c2.Cancel()
	c3.Cancel()

	if ran := e.RunBefore(30); ran != 2 {
		t.Fatalf("RunBefore(30) ran %d events, want 2", ran)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	if e.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2 (cancelled events must not count)", e.Steps())
	}
	// The three cancelled events were discarded on the way; only the
	// t=40 event remains, and every other slot is back on the free list.
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	checkSlots(t, e)
	e.Run()
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("order after Run = %v, want [1 2 3]", order)
	}
}

// checkSlots fails unless every arena slot is either in the heap or on
// the free list: a slot popped without release leaks out of both.
func checkSlots(t *testing.T, e *Engine) {
	t.Helper()
	if len(e.events) != len(e.heap)+len(e.free) {
		t.Fatalf("%d arena slots, but %d in the heap + %d free", len(e.events), len(e.heap), len(e.free))
	}
}

// A handle kept past its event's firing must stay inert even after the
// engine recycles the event for a new schedule.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	stale := e.Schedule(1, func() {})
	e.Run()

	fired := false
	e.Schedule(1, func() { fired = true }) // likely reuses the recycled Event
	stale.Cancel()                         // must not touch the new event
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled a recycled event")
	}
}

// The free list must make steady-state scheduling allocation-free.
func TestEventPoolReuse(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the pool and the queue.
	for i := 0; i < 8; i++ {
		e.Schedule(1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			e.Schedule(1, fn)
		}
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Schedule+Run allocates %.1f times per run, want 0", allocs)
	}
}

// Cancelled events discarded by RunBefore and NextEventAt must also
// return to the pool.
func TestRunBeforeRecyclesCancelledEvents(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 4; i++ {
		e.Schedule(1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			e.Schedule(Duration(i+1), fn).Cancel()
		}
		e.RunBefore(e.Now() + 3)
		if _, ok := e.NextEventAt(); ok {
			t.Fatal("NextEventAt reported a cancelled event")
		}
	})
	if allocs > 0 {
		t.Fatalf("cancelled-event discard allocates %.1f times per run, want 0", allocs)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after discarding every event, want 0", e.Pending())
	}
	checkSlots(t, e)
}

// TestNextEventAt pins NextEventAt semantics: it reports the earliest
// live event without firing it, discards cancelled fronts, and goes
// empty-false only when nothing remains.
func TestNextEventAt(t *testing.T) {
	e := New()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("empty engine reported a next event")
	}
	h1 := e.Schedule(100, func() {})
	e.Schedule(500_000, func() {})
	if at, ok := e.NextEventAt(); !ok || at != 100 {
		t.Fatalf("NextEventAt = %v, %v; want 100, true", at, ok)
	}
	if e.Now() != 0 {
		t.Fatalf("NextEventAt advanced the clock to %v", e.Now())
	}
	h1.Cancel()
	if at, ok := e.NextEventAt(); !ok || at != 500_000 {
		t.Fatalf("NextEventAt after cancel = %v, %v; want 500000, true", at, ok)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after NextEventAt discarded the cancelled front, want 1", e.Pending())
	}
	e.Run()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("drained engine reported a next event")
	}
}

// TestRunBeforeExcludesBound pins the strict inequality: an event
// exactly at the bound stays pending, and the clock does not jump to
// the bound.
func TestRunBeforeExcludesBound(t *testing.T) {
	e := New()
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, e.Now()) })
	e.Schedule(20, func() { fired = append(fired, e.Now()) })
	e.Schedule(30, func() { fired = append(fired, e.Now()) })
	if ran := e.RunBefore(20); ran != 1 {
		t.Fatalf("RunBefore(20) ran %d events, want 1", ran)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %v after RunBefore(20), want 10 (no jump to bound)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("%d pending after RunBefore, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 3 || fired[2] != 30 {
		t.Fatalf("fired = %v", fired)
	}
}

// TestResetDrainsHeap schedules events from 1 µs to 10 s ahead, fires
// one, and checks Reset recycles every remaining slot.
func TestResetDrainsHeap(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.Schedule(50_000, func() {})
	e.Schedule(10_000_000, func() {})
	e.Step()
	e.Schedule(2, func() {})
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	e.Reset()
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("after Reset: pending=%d now=%v", e.Pending(), e.Now())
	}
	checkSlots(t, e)
	fired := 0
	e.Schedule(5, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("post-Reset engine fired %d events, want 1", fired)
	}
}

// BenchmarkEngineSchedule measures the schedule/fire hot path; with the
// event free list it runs allocation-free in steady state.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, fn)
		e.Step()
	}
}

// BenchmarkRetransmitCancelHeavy models the reliable channel's timer
// pattern: every frame arms a retransmit timer ~1 RTT out and the ACK
// cancels almost all of them before they fire. Each timer costs one
// sift on insert, and each cancelled one stays in the heap until it
// reaches the front, where it is popped and recycled.
func BenchmarkRetransmitCancelHeavy(b *testing.B) {
	e := New()
	const window = 64
	const rto = Duration(900) // ~1 RTT for a 5 KB frame at OC-3
	fn := func() {}
	handles := make([]Handle, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < window; j++ {
			handles = append(handles, e.Schedule(rto+Duration(j), fn))
		}
		// ACKs arrive: cancel all but one timer, let the survivor fire.
		for j, h := range handles {
			if j != window/2 {
				h.Cancel()
			}
		}
		handles = handles[:0]
		e.Run()
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 100; j++ {
			e.Schedule(Duration(j%17), func() {})
		}
		e.Run()
	}
}

func TestReset(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(5, func() { fired = true })
	stale := e.Schedule(10, func() { fired = true })

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Steps() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d steps=%d, want all zero", e.Now(), e.Pending(), e.Steps())
	}
	if got := e.Run(); got != 0 || fired {
		t.Fatalf("pending events survived Reset (ran to %v, fired=%t)", got, fired)
	}

	// The engine is reusable and stale handles are inert.
	count := 0
	e.Schedule(3, func() { count++ }) // likely recycles a discarded event
	stale.Cancel()                    // must not touch the new event
	if end := e.Run(); end != 3 {
		t.Fatalf("Run after Reset ended at %v, want 3", end)
	}
	if count != 1 {
		t.Fatalf("event after Reset fired %d times, want 1", count)
	}
	if e.Steps() != 1 {
		t.Fatalf("steps = %d after one post-Reset event, want 1", e.Steps())
	}
}
