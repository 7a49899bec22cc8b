// Package topo describes N-host simulated network topologies.
//
// A Spec is pure description: a host count plus the set of host pairs
// reachable through the switch fabric, with optional wire-parameter
// overrides. The core layer turns a Spec into engine shards, NICs, and
// fabric routes; experiments compose Specs (ring halo exchange, incast
// fan-in) without touching the wiring underneath.
package topo

import "fmt"

// Spec describes an N-host topology. Hosts are dense indices 0..Hosts-1.
// Each entry of Pairs names two hosts that may open channels to each
// other through the fabric. PerByteUS and FixedUS override the cost
// model's base link timing when nonzero; FixedUS is also the cluster's
// lookahead, since it is the minimum latency any cross-host effect can
// have.
type Spec struct {
	Hosts     int
	Pairs     [][2]int
	PerByteUS float64 // per-byte wire time in µs; 0 → cost model base
	FixedUS   float64 // fixed delivery latency in µs; 0 → cost model base
}

// Pair is the degenerate two-host topology the original pairwise
// testbed assumed.
func Pair() Spec {
	return Spec{Hosts: 2, Pairs: [][2]int{{0, 1}}}
}

// Ring connects host i to host (i+1) mod n — the halo-exchange shape.
func Ring(n int) Spec {
	s := Spec{Hosts: n}
	if n == 2 {
		s.Pairs = [][2]int{{0, 1}}
		return s
	}
	for i := 0; i < n; i++ {
		s.Pairs = append(s.Pairs, [2]int{i, (i + 1) % n})
	}
	return s
}

// Incast connects hosts 1..n-1 to host 0 — the fan-in shape where
// many senders converge on one receiver's ports and pools.
func Incast(n int) Spec {
	s := Spec{Hosts: n}
	for i := 1; i < n; i++ {
		s.Pairs = append(s.Pairs, [2]int{i, 0})
	}
	return s
}

// Validate reports whether the Spec is internally consistent.
func (s Spec) Validate() error {
	if s.Hosts < 1 {
		return fmt.Errorf("topo: need at least 1 host, got %d", s.Hosts)
	}
	if s.PerByteUS < 0 || s.FixedUS < 0 {
		return fmt.Errorf("topo: negative wire parameters (perByte=%v fixed=%v)", s.PerByteUS, s.FixedUS)
	}
	for i, p := range s.Pairs {
		a, b := p[0], p[1]
		if a < 0 || a >= s.Hosts || b < 0 || b >= s.Hosts {
			return fmt.Errorf("topo: pair %d (%d,%d) out of range for %d hosts", i, a, b, s.Hosts)
		}
		if a == b {
			return fmt.Errorf("topo: pair %d connects host %d to itself", i, a)
		}
	}
	return nil
}
