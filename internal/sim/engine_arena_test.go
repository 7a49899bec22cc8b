package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// refEvent / refQueue are the engine's reference model: a plain
// container/heap of *refEvent ordered by (time, seq). The property
// tests below drive it and the arena engine with identical random
// scripts and require identical observable behaviour.
type refEvent struct {
	at     Time
	seq    uint64
	id     int
	cancel bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// refEngine is the oracle: schedule, lazy cancel, and fire semantics,
// tracking fired event ids in order.
type refEngine struct {
	now   Time
	seq   uint64
	queue refQueue
	fired []int
}

func (r *refEngine) schedule(d Duration, id int) *refEvent {
	if d < 0 {
		d = 0
	}
	t := r.now.Add(d)
	if t < r.now {
		t = r.now
	}
	ev := &refEvent{at: t, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.queue, ev)
	return ev
}

func (r *refEngine) step() bool {
	for len(r.queue) > 0 {
		ev := heap.Pop(&r.queue).(*refEvent)
		if ev.cancel {
			continue
		}
		r.now = ev.at
		r.fired = append(r.fired, ev.id)
		return true
	}
	return false
}

func (r *refEngine) runBefore(t Time) int {
	ran := 0
	for len(r.queue) > 0 {
		ev := r.queue[0]
		if ev.cancel {
			heap.Pop(&r.queue)
			continue
		}
		if ev.at >= t {
			break
		}
		heap.Pop(&r.queue)
		r.now = ev.at
		r.fired = append(r.fired, ev.id)
		ran++
	}
	return ran
}

// scriptDelay draws a delay for the property script. The mix spans
// every scale the simulator schedules at: negative (clamped to now),
// sub-8 µs ties, 2 ms, 131 ms and up to 10 s ahead, plus exact repeats
// of the last scheduled time to force (at, seq) tie-breaks.
func scriptDelay(rng *rand.Rand, now, last Time) Duration {
	switch rng.Intn(6) {
	case 0:
		return Duration(rng.Intn(50) - 5)
	case 1:
		return Duration(rng.Intn(8))
	case 2:
		return Duration(rng.Intn(2048))
	case 3:
		return Duration(rng.Intn(131072))
	case 4:
		return Duration(131072 + rng.Intn(10_000_000))
	default:
		return last.Sub(now)
	}
}

// TestPropertyArenaMatchesReferenceHeap drives the arena engine and the
// reference container/heap implementation with the same random script of
// schedules, cancels, steps, and bounded runs, and requires the fired
// event order, clock, pending counts and arena slot accounting to agree
// at every step.
func TestPropertyArenaMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		e := New()
		ref := &refEngine{}
		var fired []int
		nextID := 0
		var last Time

		// Live handles eligible for cancellation, kept in lockstep.
		type pending struct {
			h  Handle
			rv *refEvent
		}
		var live []pending

		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // schedule
				d := scriptDelay(rng, e.Now(), last)
				id := nextID
				nextID++
				h := e.Schedule(d, func() { fired = append(fired, id) })
				rv := ref.schedule(d, id)
				if h.When() != rv.at {
					t.Fatalf("trial %d op %d: When()=%v, reference at=%v", trial, op, h.When(), rv.at)
				}
				last = rv.at
				live = append(live, pending{h, rv})
			case k < 6: // cancel a random live handle (possibly stale)
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				live[i].h.Cancel()
				live[i].rv.cancel = true
			case k < 8: // step once
				got := e.Step()
				want := ref.step()
				if got != want {
					t.Fatalf("trial %d op %d: Step()=%v, reference %v", trial, op, got, want)
				}
			default: // run before a bound drawn from the same mix
				bound := e.Now().Add(scriptDelay(rng, e.Now(), last))
				if got, want := e.RunBefore(bound), ref.runBefore(bound); got != want {
					t.Fatalf("trial %d op %d: RunBefore(%v) ran %d, reference %d", trial, op, bound, got, want)
				}
			}
			if e.Now() != ref.now {
				t.Fatalf("trial %d op %d: clock %v, reference %v", trial, op, e.Now(), ref.now)
			}
			if e.Pending() != len(ref.queue) {
				t.Fatalf("trial %d op %d: %d pending, reference %d", trial, op, e.Pending(), len(ref.queue))
			}
			checkSlots(t, e)
		}

		// Drain both and compare the complete firing order.
		e.Run()
		for ref.step() {
		}
		if e.Now() != ref.now {
			t.Fatalf("trial %d: final clock %v, reference %v", trial, e.Now(), ref.now)
		}
		if len(fired) != len(ref.fired) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(fired), len(ref.fired))
		}
		for i := range fired {
			if fired[i] != ref.fired[i] {
				t.Fatalf("trial %d: firing order diverges at %d: %d vs %d", trial, i, fired[i], ref.fired[i])
			}
		}
		checkSlots(t, e)
	}
}

// TestPropertyWheelMatchesReferenceAcrossHorizons drives the engine and
// the reference heap with quick-generated scripts whose delays span
// every horizon the simulator schedules at — same-tick ties, 2 ms,
// 131 ms and up to 10 s ahead — including exact-tie times, stale and
// live cancellations and bounded runs. The timer wheel that once split
// these horizons into separate stores is gone; the property still
// pins the single heap's fire order across them to the oracle.
func TestPropertyWheelMatchesReferenceAcrossHorizons(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		ref := &refEngine{}
		var fired []int
		var handles []Handle
		var refEvents []*refEvent
		var last Time
		total := int(n)%96 + 16

		for i := 0; i < total; i++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				d := scriptDelay(rng, e.Now(), last)
				id := len(handles)
				handles = append(handles, e.Schedule(d, func() { fired = append(fired, id) }))
				rv := ref.schedule(d, id)
				refEvents = append(refEvents, rv)
				last = rv.at
			case 6:
				if len(handles) > 0 {
					k := rng.Intn(len(handles))
					handles[k].Cancel()
					refEvents[k].cancel = true
				}
			case 7, 8:
				if e.Step() != ref.step() {
					return false
				}
			case 9:
				bound := e.Now().Add(Duration(rng.Intn(200_000)))
				if e.RunBefore(bound) != ref.runBefore(bound) {
					return false
				}
			}
			if e.Now() != ref.now {
				return false
			}
		}
		e.Run()
		for ref.step() {
		}
		if len(fired) != len(ref.fired) || e.Now() != ref.now {
			return false
		}
		for i := range fired {
			if fired[i] != ref.fired[i] {
				return false
			}
		}
		return e.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyArenaNestedScheduling mixes callbacks that schedule more
// work mid-run — the case where the arena may grow while a callback
// runs — and checks order against the reference.
func TestPropertyArenaNestedScheduling(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		e := New()
		ref := &refEngine{}
		var fired []int
		nextID := 0

		// Each root event schedules a random burst of children when it
		// fires. The reference cannot run callbacks, so replay the same
		// burst decisions from a script generated up front.
		type burst struct{ delays []Duration }
		bursts := make([]burst, 40)
		for i := range bursts {
			b := burst{delays: make([]Duration, rng.Intn(4))}
			for j := range b.delays {
				b.delays[j] = Duration(rng.Intn(20))
			}
			bursts[i] = b
		}

		var schedule func(d Duration, depth int) int
		schedule = func(d Duration, depth int) int {
			id := nextID
			nextID++
			b := bursts[id%len(bursts)]
			e.Schedule(d, func() {
				fired = append(fired, id)
				if depth < 2 {
					for _, cd := range b.delays {
						schedule(cd, depth+1)
					}
				}
			})
			return id
		}

		// Mirror on the reference engine: it cannot run callbacks, so
		// its fire loop expands the same burst table whenever an event
		// fires, assigning child ids in the same order the arena's
		// callbacks do.
		refNext := 0
		depths := map[int]int{}
		refSchedule := func(d Duration, depth int) {
			ref.schedule(d, refNext)
			depths[refNext] = depth
			refNext++
		}
		refRun := func() {
			for {
				before := len(ref.fired)
				if !ref.step() {
					break
				}
				id := ref.fired[before]
				if d := depths[id]; d < 2 {
					for _, cd := range bursts[id%len(bursts)].delays {
						refSchedule(cd, d+1)
					}
				}
			}
		}

		roots := 1 + rng.Intn(6)
		for i := 0; i < roots; i++ {
			d := Duration(rng.Intn(30))
			schedule(d, 0)
			refSchedule(d, 0)
		}
		e.Run()
		refRun()

		if len(fired) != len(ref.fired) {
			t.Fatalf("trial %d: fired %d events, reference fired %d", trial, len(fired), len(ref.fired))
		}
		for i := range fired {
			if fired[i] != ref.fired[i] {
				t.Fatalf("trial %d: firing order diverges at %d: %d vs %d", trial, i, fired[i], ref.fired[i])
			}
		}
		if e.Now() != ref.now {
			t.Fatalf("trial %d: final clock %v, reference %v", trial, e.Now(), ref.now)
		}
	}
}
