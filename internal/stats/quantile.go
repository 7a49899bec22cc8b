package stats

import (
	"math"
	"slices"
)

// This file provides the closed-loop workload toolkit: exact order
// statistics over latency samples and high-water-mark gauges over pool
// occupancy. Both are deliberately exact rather than sketched — the
// workload engine's determinism contract hashes their outputs, and an
// approximate quantile would make the digest depend on insertion order.

// Quantiles collects float64 samples and serves exact order statistics
// (nearest-rank quantiles). The hot path — Add with spare capacity — is
// allocation-free; sorting is deferred to the first query after a
// mutation and done in place.
type Quantiles struct {
	samples []float64
	sorted  bool
}

// NewQuantiles returns a collector preallocated for capacity samples.
// Adds beyond the capacity grow the buffer (and allocate).
func NewQuantiles(capacity int) *Quantiles {
	if capacity < 0 {
		capacity = 0
	}
	return &Quantiles{samples: make([]float64, 0, capacity)}
}

// Add records one sample. Within the preallocated capacity it performs
// no allocation.
func (q *Quantiles) Add(v float64) {
	q.samples = append(q.samples, v)
	q.sorted = false
}

// N returns the number of recorded samples.
func (q *Quantiles) N() int { return len(q.samples) }

// Reset discards all samples, retaining capacity.
func (q *Quantiles) Reset() {
	q.samples = q.samples[:0]
	q.sorted = true
}

// sort establishes the sorted order lazily.
func (q *Quantiles) sort() {
	if !q.sorted {
		slices.Sort(q.samples)
		q.sorted = true
	}
}

// Quantile returns the exact nearest-rank quantile: the smallest sample
// v such that at least ceil(p*N) samples are <= v. Quantile(0) is the
// minimum, Quantile(1) the maximum. With no samples it returns NaN.
func (q *Quantiles) Quantile(p float64) float64 {
	n := len(q.samples)
	if n == 0 {
		return math.NaN()
	}
	q.sort()
	if p <= 0 {
		return q.samples[0]
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return q.samples[rank-1]
}

// Min returns the smallest sample (NaN when empty).
func (q *Quantiles) Min() float64 { return q.Quantile(0) }

// Max returns the largest sample (NaN when empty).
func (q *Quantiles) Max() float64 { return q.Quantile(1) }

// Sum returns the sum of all samples.
func (q *Quantiles) Sum() float64 {
	s := 0.0
	for _, v := range q.samples {
		s += v
	}
	return s
}

// LatencySummary is the percentile digest the workload reports carry:
// exact p50/p95/p99/max over the recorded samples, plus the mean.
type LatencySummary struct {
	N    int     `json:"n"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// Summary computes the percentile digest. An empty collector yields the
// zero summary (not NaNs), so JSON reports stay finite.
func (q *Quantiles) Summary() LatencySummary {
	n := len(q.samples)
	if n == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		N:    n,
		P50:  q.Quantile(0.50),
		P95:  q.Quantile(0.95),
		P99:  q.Quantile(0.99),
		Max:  q.Quantile(1),
		Mean: q.Sum() / float64(n),
	}
}

// HighWater is a gauge that remembers the highest level it ever held —
// the memory high-water marks of the paper's pools under closed-loop
// load. The zero value is ready to use at level 0.
//
// Levels are occupancy counts and can never legitimately go negative: a
// negative level means some pool released more than it acquired (a
// double release or unbalanced accounting). Rather than silently
// recording the impossible level, Set clamps it to zero and counts the
// underflow; conservation audits assert Underflows() == 0 alongside
// their free-count checks.
type HighWater struct {
	level      int
	high       int
	underflows uint64
}

// Set moves the gauge to an absolute level. Negative levels are clamped
// to zero and recorded as underflows.
func (h *HighWater) Set(level int) {
	if level < 0 {
		h.underflows++
		level = 0
	}
	h.level = level
	if level > h.high {
		h.high = level
	}
}

// Add moves the gauge by delta and returns the new level (clamped at
// zero; a clamp is recorded as an underflow).
func (h *HighWater) Add(delta int) int {
	h.Set(h.level + delta)
	return h.level
}

// Level returns the current level.
func (h *HighWater) Level() int { return h.level }

// High returns the highest level ever set.
func (h *HighWater) High() int { return h.high }

// Underflows returns how many times the gauge was asked to go below
// zero — always zero for a correctly balanced pool.
func (h *HighWater) Underflows() uint64 { return h.underflows }

// Reset returns the gauge to level 0 with no recorded high and no
// recorded underflows. Pools call it from their recycling Reset paths
// so a recycled component reports the same marks a fresh one would.
func (h *HighWater) Reset() { *h = HighWater{} }
