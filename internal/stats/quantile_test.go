package stats

import (
	"math"
	"math/rand"
	"testing"
)

// Exact percentiles on a known distribution: 1..100 inserted shuffled.
// Nearest-rank quantiles of 1..N are analytically ceil(p*N).
func TestQuantilesKnownDistribution(t *testing.T) {
	q := NewQuantiles(100)
	perm := rand.New(rand.NewSource(7)).Perm(100)
	for _, i := range perm {
		q.Add(float64(i + 1))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.75, 75}, {0.95, 95},
		{0.99, 99}, {0.999, 100}, {1, 100},
	}
	for _, c := range cases {
		if got := q.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	s := q.Summary()
	if s.N != 100 || s.P50 != 50 || s.P95 != 95 || s.P99 != 99 || s.Max != 100 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-12 {
		t.Errorf("Mean = %v, want 50.5", s.Mean)
	}
}

// Small-N edge cases: the nearest-rank definition on tiny sample sets.
func TestQuantilesSmallN(t *testing.T) {
	empty := NewQuantiles(0)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty Quantile should be NaN")
	}
	if s := empty.Summary(); s != (LatencySummary{}) {
		t.Errorf("empty Summary = %+v, want zero value", s)
	}

	one := NewQuantiles(1)
	one.Add(42)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(p); got != 42 {
			t.Errorf("single-sample Quantile(%v) = %v", p, got)
		}
	}

	four := NewQuantiles(4)
	for _, v := range []float64{40, 10, 30, 20} {
		four.Add(v)
	}
	// ceil(0.5*4)=2nd → 20; ceil(0.99*4)=4th → 40.
	if got := four.Quantile(0.5); got != 20 {
		t.Errorf("Quantile(0.5) of 4 = %v, want 20", got)
	}
	if got := four.Quantile(0.99); got != 40 {
		t.Errorf("Quantile(0.99) of 4 = %v, want 40", got)
	}
}

// The hot path must be allocation-free: Add within capacity, and
// re-querying an already sorted collector.
func TestQuantilesZeroAllocHotPath(t *testing.T) {
	q := NewQuantiles(1024)
	if allocs := testing.AllocsPerRun(1000, func() {
		if q.N() >= 1024 {
			q.Reset()
		}
		q.Add(3.14)
	}); allocs != 0 {
		t.Errorf("Add allocates %v times per op within capacity", allocs)
	}
	for i := 0; i < 100; i++ {
		q.Add(float64(i))
	}
	q.Quantile(0.5)
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Quantile(0.99)
		q.Summary()
	}); allocs != 0 {
		t.Errorf("query path allocates %v times per op", allocs)
	}

	var h HighWater
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Add(3)
		h.Add(-3)
	}); allocs != 0 {
		t.Errorf("HighWater allocates %v times per op", allocs)
	}
}

func TestHighWater(t *testing.T) {
	var h HighWater
	if h.Level() != 0 || h.High() != 0 {
		t.Fatalf("zero value: level %d high %d", h.Level(), h.High())
	}
	h.Add(5)
	h.Add(-3)
	h.Add(6)
	if h.Level() != 8 || h.High() != 8 {
		t.Errorf("after adds: level %d high %d, want 8/8", h.Level(), h.High())
	}
	h.Add(-8)
	if h.Level() != 0 || h.High() != 8 {
		t.Errorf("high must persist through drain: level %d high %d", h.Level(), h.High())
	}
	h.Set(3)
	if h.High() != 8 {
		t.Errorf("Set below high must not lower it: high %d", h.High())
	}
	h.Reset()
	if h.Level() != 0 || h.High() != 0 {
		t.Errorf("after Reset: level %d high %d", h.Level(), h.High())
	}
}

func TestHighWaterUnderflow(t *testing.T) {
	var h HighWater
	h.Add(2)
	h.Add(-2)
	if h.Underflows() != 0 {
		t.Fatalf("balanced gauge recorded %d underflows", h.Underflows())
	}
	// A double release: the level clamps at zero instead of going
	// negative, and the violation is counted.
	if lvl := h.Add(-1); lvl != 0 {
		t.Errorf("underflowed Add returned level %d, want clamp to 0", lvl)
	}
	if h.Underflows() != 1 {
		t.Errorf("Underflows() = %d after one underflow", h.Underflows())
	}
	h.Set(-5)
	if h.Level() != 0 || h.Underflows() != 2 {
		t.Errorf("Set(-5): level %d underflows %d, want 0/2", h.Level(), h.Underflows())
	}
	// The high-water mark is unaffected by clamped excursions, and
	// recovery from a clamp resumes normal accounting from zero.
	if h.High() != 2 {
		t.Errorf("high %d perturbed by underflow, want 2", h.High())
	}
	h.Add(3)
	if h.Level() != 3 || h.High() != 3 {
		t.Errorf("post-clamp Add: level %d high %d, want 3/3", h.Level(), h.High())
	}
	h.Reset()
	if h.Underflows() != 0 {
		t.Errorf("Reset must clear underflows, got %d", h.Underflows())
	}
}
