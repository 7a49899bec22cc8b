package sim

import "fmt"

// The engine stores events in a flat arena and orders them with one
// min-heap of int32 indices into it, keyed by (time, sequence).
// Compared to a container/heap of *Event, sift operations move 4-byte
// indices instead of pointers and the comparison loads stay within one
// contiguous slice (no per-event pointer chase). Fired and discarded
// slots are recycled through a free list, so the steady-state
// schedule/fire path allocates nothing.
//
// Cancellation is lazy: Cancel only sets a flag, and a cancelled event
// stays in the heap until it reaches the front, where front discards
// and recycles it. Nothing is ever removed from the middle of the heap.
//
// Callers never hold event storage directly — the arena reallocates as
// it grows, so Schedule and ScheduleAt return a Handle that names a slot
// by (engine, index, generation). The generation check keeps stale
// cancellations from touching a recycled slot.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	gen    uint32
	cancel bool
}

// Handle identifies one scheduled event. The zero Handle is inert.
type Handle struct {
	e   *Engine
	idx int32
	gen uint32
	at  Time
}

// When returns the virtual time at which the event was scheduled to fire.
func (h Handle) When() Time { return h.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op: once the event fires or is
// discarded, the engine recycles its slot under a new generation and the
// stale handle no longer matches.
func (h Handle) Cancel() {
	if h.e == nil || int(h.idx) >= len(h.e.events) {
		return
	}
	if ev := &h.e.events[h.idx]; ev.gen == h.gen {
		ev.cancel = true
	}
}

// initialQueueCap sizes the event arena and index heap on first use,
// ample for one datagram transfer without growth.
const initialQueueCap = 64

// Engine is a deterministic discrete-event simulator. Events fire in
// (time, sequence) order, where the sequence number records scheduling
// order, so events at equal times fire first-scheduled first.
//
// The zero value is ready to use, with the clock at time 0. An Engine is
// not safe for concurrent use; independent simulations run in parallel by
// giving each its own Engine.
type Engine struct {
	now    Time
	seq    uint64
	events []event // arena; slots recycled through free
	heap   []int32 // arena indices ordered by (at, seq)
	free   []int32 // recycled slots, reused by ScheduleAt
	steps  uint64
}

// New returns a new engine with the clock at time zero.
func New() *Engine {
	return &Engine{
		events: make([]event, 0, initialQueueCap),
		heap:   make([]int32, 0, initialQueueCap),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events in the heap, including cancelled
// events that have not yet reached the front and been discarded.
func (e *Engine) Pending() int { return len(e.heap) }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// less orders heap entries by (time, sequence).
func (e *Engine) less(i, j int32) bool {
	a, b := &e.events[i], &e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores heap order upward from heap position i.
func (e *Engine) siftUp(i int) {
	idx := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(idx, e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		i = parent
	}
	e.heap[i] = idx
}

// siftDown restores heap order downward from heap position i.
func (e *Engine) siftDown(i int) {
	idx := e.heap[i]
	n := len(e.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.less(e.heap[r], e.heap[child]) {
			child = r
		}
		if !e.less(e.heap[child], idx) {
			break
		}
		e.heap[i] = e.heap[child]
		i = child
	}
	e.heap[i] = idx
}

// pop removes and returns the arena index of the earliest heap entry.
func (e *Engine) pop() int32 {
	idx := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return idx
}

// Schedule queues fn to run d after the current time. A negative d is an
// error in the caller; it is clamped to zero so the event still fires,
// preserving causality.
func (e *Engine) Schedule(d Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt queues fn to run at absolute time t. Times in the past are
// clamped to the current time.
func (e *Engine) ScheduleAt(t Time, fn func()) Handle {
	if t < e.now {
		t = e.now
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.events = append(e.events, event{})
		idx = int32(len(e.events) - 1)
	}
	ev := &e.events[idx]
	ev.at, ev.fn, ev.cancel = t, fn, false
	ev.seq = e.seq
	e.seq++
	gen := ev.gen
	e.heap = append(e.heap, idx)
	e.siftUp(len(e.heap) - 1)
	return Handle{e: e, idx: idx, gen: gen, at: t}
}

// release recycles a popped slot into the free list. Bumping the
// generation makes every outstanding Handle to it inert.
func (e *Engine) release(idx int32) {
	ev := &e.events[idx]
	ev.gen++
	ev.fn = nil
	e.free = append(e.free, idx)
}

// Reset returns the engine to its post-construction state: clock at
// zero, sequence and step counters at zero, no pending events. The
// event arena and free list are retained, so an engine recycled across
// simulation runs keeps its allocation-free schedule/fire path warm.
// Outstanding Handles become inert (their slots are recycled under new
// generations), exactly as if they had fired.
func (e *Engine) Reset() {
	for _, idx := range e.heap {
		e.release(idx)
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.steps = 0, 0, 0
}

// front returns the arena index of the earliest live event, which is
// then the heap's root. Cancelled events that reach the root on the
// way are popped and recycled, each exactly once. It reports false when
// no live event remains. This is the engine's only discard path.
func (e *Engine) front() (int32, bool) {
	for len(e.heap) > 0 {
		idx := e.heap[0]
		if !e.events[idx].cancel {
			return idx, true
		}
		e.release(e.pop())
	}
	return 0, false
}

// fire pops the root event, advances the clock to its time and runs it.
func (e *Engine) fire() {
	idx := e.pop()
	ev := &e.events[idx]
	e.now = ev.at
	e.steps++
	// Capture fn before releasing: the callback may schedule new
	// events, growing the arena and invalidating ev.
	fn := ev.fn
	e.release(idx)
	fn()
}

// Step executes the single earliest pending event, advancing the clock to
// its time. It reports whether an event was executed.
func (e *Engine) Step() bool {
	if _, ok := e.front(); !ok {
		return false
	}
	e.fire()
	return true
}

// Run executes events until none remain, returning the final clock value.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunBefore executes every event with time strictly before t, advancing
// the clock only as events fire: it does not move the clock to t
// afterward. It returns the number of events executed. This is the
// shard-advance primitive for conservative parallel simulation: a
// Cluster runs each shard up to (but excluding) the window bound, then
// exchanges cross-shard messages that land at or after it.
func (e *Engine) RunBefore(t Time) int {
	ran := 0
	for {
		idx, ok := e.front()
		if !ok || e.events[idx].at >= t {
			return ran
		}
		e.fire()
		ran++
	}
}

// NextEventAt reports the time of the earliest live pending event
// without firing it. Cancelled events at the front are discarded on the
// way. The second result is false when no live events remain.
func (e *Engine) NextEventAt() (Time, bool) {
	idx, ok := e.front()
	if !ok {
		return 0, false
	}
	return e.events[idx].at, true
}

func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine(now=%v pending=%d)", e.now, e.Pending())
}
