// Package faults provides seeded, deterministic fault injection for the
// simulated testbed: wire-level frame drop, duplication, reordering and
// payload corruption in the network simulator, transient physical-memory
// allocation failures, and device pool admission denials.
//
// Determinism is the whole point. An Injector owns a splitmix64 PRNG
// whose draws happen on the single-threaded simulation path, so a given
// (Spec, workload) pair replays the exact same fault script on every
// run — chaos results are reproducible, debuggable, and cacheable. A
// decision method whose probability is zero draws nothing from the
// stream, so a Spec with only a seed set perturbs nothing: the
// simulation is bit-identical to one with no injector at all.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec configures an Injector. The zero value means no fault injection;
// a Spec with only Seed set attaches an injector that never fires
// (useful for identity testing). All fields are value-typed so a Spec
// can key memo caches and testbed free lists by equality.
type Spec struct {
	// Seed initializes the deterministic PRNG stream.
	Seed uint64
	// Drop is the per-frame probability that a transmitted frame is lost
	// on the wire.
	Drop float64
	// Duplicate is the per-frame probability of a second delivery.
	Duplicate float64
	// Reorder is the per-frame probability of extra delivery delay,
	// letting later frames overtake this one.
	Reorder float64
	// Corrupt is the per-frame probability that one payload byte is
	// flipped on the wire.
	Corrupt float64
	// AllocFail is the per-allocation probability of a transient
	// ErrOutOfMemory from physical memory.
	AllocFail float64
	// PoolDeny is the per-admission probability that the device overlay
	// pool or outboard memory reports exhaustion.
	PoolDeny float64
}

// maxRate bounds every probability: recovery machinery (retransmission,
// deferred pool refill, repost retries) terminates because a bounded
// sequence of consecutive failures is overwhelmingly likely to break.
const maxRate = 0.9

// Enabled reports whether the spec attaches an injector at all.
func (s Spec) Enabled() bool { return s != Spec{} }

// Validate checks every probability is within [0, maxRate].
func (s Spec) Validate() error {
	for _, r := range []struct {
		name string
		p    float64
	}{
		{"drop", s.Drop}, {"dup", s.Duplicate}, {"reorder", s.Reorder},
		{"corrupt", s.Corrupt}, {"allocfail", s.AllocFail}, {"pooldeny", s.PoolDeny},
	} {
		if math.IsNaN(r.p) || r.p < 0 || r.p > maxRate {
			return fmt.Errorf("faults: %s=%v outside [0, %v]", r.name, r.p, maxRate)
		}
	}
	return nil
}

// String renders the spec in ParseSpec's syntax, omitting zero fields.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	parts = append(parts, "seed="+strconv.FormatUint(s.Seed, 10))
	add("drop", s.Drop)
	add("dup", s.Duplicate)
	add("reorder", s.Reorder)
	add("corrupt", s.Corrupt)
	add("allocfail", s.AllocFail)
	add("pooldeny", s.PoolDeny)
	return strings.Join(parts, ",")
}

// ParseSpec parses "seed=N,drop=P,dup=P,reorder=P,corrupt=P,
// allocfail=P,pooldeny=P" (any subset, any order, each key at most
// once) and validates the result. The empty string parses to the zero
// Spec (injection off). Every error quotes the token it rejects: the
// field, the key or the value.
func ParseSpec(s string) (Spec, error) {
	var out Spec
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	seen := make(map[*float64]bool)
	seedSeen := false
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q is not key=value", field)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		if k == "seed" {
			if seedSeen {
				return Spec{}, fmt.Errorf("faults: duplicate key %q", k)
			}
			seedSeen = true
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faults: seed %q: %w", v, err)
			}
			out.Seed = seed
			continue
		}
		var rate *float64
		switch k {
		case "drop":
			rate = &out.Drop
		case "dup", "duplicate":
			rate = &out.Duplicate
		case "reorder":
			rate = &out.Reorder
		case "corrupt":
			rate = &out.Corrupt
		case "allocfail":
			rate = &out.AllocFail
		case "pooldeny":
			rate = &out.PoolDeny
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q (want %s)", k, knownKeys())
		}
		if seen[rate] {
			return Spec{}, fmt.Errorf("faults: duplicate key %q", k)
		}
		seen[rate] = true
		p, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("faults: %s %q: %w", k, v, err)
		}
		if math.IsNaN(p) || p < 0 || p > maxRate {
			return Spec{}, fmt.Errorf("faults: %s %q outside [0, %v]", k, v, maxRate)
		}
		*rate = p
	}
	return out, nil
}

func knownKeys() string {
	keys := []string{"seed", "drop", "dup", "reorder", "corrupt", "allocfail", "pooldeny"}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// Stats counts fault decisions that fired.
type Stats struct {
	Drops, Duplicates, Reorders, Corruptions uint64
	AllocFailures, PoolDenials               uint64
}

// Total returns the number of faults injected so far.
func (s Stats) Total() uint64 {
	return s.Drops + s.Duplicates + s.Reorders + s.Corruptions + s.AllocFailures + s.PoolDenials
}

// Injector makes seeded fault decisions. The zero-probability fast path
// never draws from the PRNG, so attaching an injector whose rates are
// all zero cannot perturb a simulation. A nil *Injector is valid and
// never fires. Injectors are not safe for concurrent use; each testbed
// owns one and the simulation engine is single-threaded.
type Injector struct {
	spec  Spec
	state uint64 // splitmix64 state
	armed bool
	stats Stats
}

// New creates an armed injector for the spec, or nil for the zero spec.
func New(spec Spec) (*Injector, error) {
	if !spec.Enabled() {
		return nil, nil
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	i := &Injector{spec: spec}
	i.Reset()
	return i, nil
}

// Spec returns the injector's configuration.
func (i *Injector) Spec() Spec {
	if i == nil {
		return Spec{}
	}
	return i.spec
}

// Stats returns a snapshot of fired-fault counters.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// Reset rewinds the injector to its post-construction state: PRNG back
// at the seed, counters zeroed, armed. A Reset testbed therefore
// replays the identical fault script.
func (i *Injector) Reset() {
	if i == nil {
		return
	}
	i.state = i.spec.Seed
	i.armed = true
	i.stats = Stats{}
}

// Arm enables fault decisions (the post-construction state).
func (i *Injector) Arm() {
	if i != nil {
		i.armed = true
	}
}

// Disarm suspends fault decisions without touching the PRNG, so
// harnesses can build workloads (channels, processes, buffers) in a
// fault-free setup phase and arm only the measured run.
func (i *Injector) Disarm() {
	if i != nil {
		i.armed = false
	}
}

// Armed reports whether decisions can fire.
func (i *Injector) Armed() bool { return i != nil && i.armed }

// next advances the splitmix64 stream.
func (i *Injector) next() uint64 {
	i.state += 0x9e3779b97f4a7c15
	z := i.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a draw in [0, 1).
func (i *Injector) unit() float64 {
	return float64(i.next()>>11) / (1 << 53)
}

// roll decides one event of probability p. p == 0 (and a nil or
// disarmed injector) returns false without consuming a draw, which is
// what keeps a rate-free injector bit-identical to no injector.
func (i *Injector) roll(p float64) bool {
	if i == nil || !i.armed || p <= 0 {
		return false
	}
	return i.unit() < p
}

// DropFrame decides whether a transmitted frame is lost on the wire.
func (i *Injector) DropFrame() bool {
	if i == nil {
		return false
	}
	if i.roll(i.spec.Drop) {
		i.stats.Drops++
		return true
	}
	return false
}

// DuplicateFrame decides whether a frame is delivered twice.
func (i *Injector) DuplicateFrame() bool {
	if i == nil {
		return false
	}
	if i.roll(i.spec.Duplicate) {
		i.stats.Duplicates++
		return true
	}
	return false
}

// ReorderFrame decides whether a frame's delivery is delayed past its
// successors.
func (i *Injector) ReorderFrame() bool {
	if i == nil {
		return false
	}
	if i.roll(i.spec.Reorder) {
		i.stats.Reorders++
		return true
	}
	return false
}

// CorruptFrame decides whether an n-byte frame is corrupted in flight,
// returning the byte offset to mangle. The offset draw happens only
// when the corruption fires, keeping the stream aligned across specs
// that differ only in other rates.
func (i *Injector) CorruptFrame(n int) (int, bool) {
	if i == nil || n <= 0 || !i.roll(i.spec.Corrupt) {
		return 0, false
	}
	i.stats.Corruptions++
	return int(i.next() % uint64(n)), true
}

// FailAlloc decides whether one physical-memory allocation transiently
// fails. Plumbed into mem.PhysMem as the allocation fault hook.
func (i *Injector) FailAlloc() bool {
	if i == nil {
		return false
	}
	if i.roll(i.spec.AllocFail) {
		i.stats.AllocFailures++
		return true
	}
	return false
}

// DenyPool decides whether one device pool or outboard admission is
// denied as if the pool were exhausted.
func (i *Injector) DenyPool() bool {
	if i == nil {
		return false
	}
	if i.roll(i.spec.PoolDeny) {
		i.stats.PoolDenials++
		return true
	}
	return false
}
