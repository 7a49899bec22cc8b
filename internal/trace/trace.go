// Package trace is the structured event subsystem of the simulation:
// every layer (core data path, VM, network) emits clock-stamped events
// describing what happened and when on the virtual clock, and pluggable
// sinks collect them — a ring buffer, per-semantics latency histograms,
// or a Chrome trace_event exporter viewable in chrome://tracing.
//
// The paper's argument rests on attributing end-to-end latency to
// individual data passing operations; this package makes that
// attribution observable per event rather than only as aggregate
// counters, which is what makes the performance model auditable.
//
// Tracing is strictly pay-for-what-you-use: a nil *Tracer is the
// disabled state, every method is nil-receiver safe, and instrumented
// code guards emission with a single pointer test. With no tracer
// installed the hot path performs no allocation and no call.
package trace

import (
	"sync/atomic"

	"repro/internal/sim"
)

// Phase classifies how an event relates to time.
type Phase uint8

// Event phases.
const (
	// Instant marks a point in time (a fault, a drop, a state change).
	Instant Phase = iota
	// Complete is a span with an explicit duration (an operation charge,
	// a wire serialization).
	Complete
	// Begin opens a long-lived span closed by a matching End with the
	// same Span id.
	Begin
	// End closes a Begin.
	End
)

var phaseNames = [...]string{"instant", "complete", "begin", "end"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "Phase?"
}

// Category is the subsystem an event originates from.
type Category uint8

// Event categories.
const (
	// CatOp: data passing operations of the Genie framework (Tables 2-4).
	CatOp Category = iota
	// CatVM: virtual memory events (faults, pageout, region transitions).
	CatVM
	// CatNet: adapter and link events (serialization, DMA, overlay pool).
	CatNet
)

var categoryNames = [...]string{"op", "vm", "net"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "Category?"
}

// Event is one structured trace record. Attribute fields not applicable
// to an event are left at their zero values; Sem and Stage are carried
// as strings (they are static names, so emission stays allocation-free)
// to keep this package importable by every layer.
type Event struct {
	At    sim.Time     // when the event happened on the virtual clock
	Dur   sim.Duration // span length (Complete events)
	Phase Phase
	Cat   Category
	Name  string // event taxonomy name, e.g. "copyin", "net.tx", "vm.pageout"
	Host  string // emitting host, filled by the tracer
	Sem   string // buffering semantics name, when the event belongs to an op
	Stage string // prepare/ready/dispose, for operation charges
	Port  int    // demultiplexing port, when applicable
	Bytes int    // payload byte count the event covers
	Span  uint64 // correlation id linking the events of one op; 0 = none
}

// Sink receives emitted events. Emission happens inline on the
// simulation's hot path, so sinks must be cheap and must not retain
// pointers into the simulation. The bundled sinks (Ring and
// ChromeExporter) are not synchronized; share a sink across concurrent
// simulations only if it locks internally.
type Sink interface {
	Emit(Event)
}

// shared is the tracer state common to every derived view: one sink and
// one span-id counter, so span ids are unique across hosts (and remain
// unique even when concurrent simulations share one tracer).
type shared struct {
	sink  Sink
	spans atomic.Uint64
}

// Tracer emits events to a sink, stamping them with a host name and,
// for Instant convenience emission, the current virtual time. A nil
// Tracer is the disabled state: every method is safe and free to call.
//
// Derived views (WithHost, WithClock) share the sink and the span-id
// counter, so a testbed installs one tracer per host from a common base.
type Tracer struct {
	sh    *shared
	clock sim.Clock
	host  string
}

// New creates a tracer emitting to sink. Bind a clock with WithClock
// before using Instant; Emit works without one.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sh: &shared{sink: sink}}
}

// WithClock returns a derived tracer that stamps Instant events from c.
func (t *Tracer) WithClock(c sim.Clock) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{sh: t.sh, clock: c, host: t.host}
}

// WithHost returns a derived tracer that stamps events with host.
func (t *Tracer) WithHost(host string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{sh: t.sh, clock: t.clock, host: host}
}

// Host returns the host name stamped on emitted events.
func (t *Tracer) Host() string {
	if t == nil {
		return ""
	}
	return t.host
}

// Now returns the current virtual time, or zero without a clock.
func (t *Tracer) Now() sim.Time {
	if t == nil || t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// NewSpan allocates a span correlation id, unique across all views
// derived from the same New call. A nil tracer returns 0 (no span).
func (t *Tracer) NewSpan() uint64 {
	if t == nil {
		return 0
	}
	return t.sh.spans.Add(1)
}

// Emit sends ev to the sink, stamping the tracer's host name when the
// event has none.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	if ev.Host == "" {
		ev.Host = t.host
	}
	t.sh.sink.Emit(ev)
}

// Instant emits a point event at the current virtual time.
func (t *Tracer) Instant(cat Category, name string, bytes int) {
	if t == nil {
		return
	}
	t.sh.sink.Emit(Event{
		At: t.Now(), Phase: Instant, Cat: cat, Name: name,
		Host: t.host, Bytes: bytes,
	})
}

// multi fans one event out to several sinks.
type multi []Sink

func (m multi) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Multi returns a sink that forwards every event to each given sink in
// order.
func Multi(sinks ...Sink) Sink { return multi(sinks) }
