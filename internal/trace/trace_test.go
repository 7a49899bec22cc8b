package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// fakeClock is a settable sim.Clock.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

// countSink counts emissions.
type countSink struct{ n int }

func (s *countSink) Emit(Event) { s.n++ }

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Name: "x"})
	tr.Instant(CatVM, "y", 0)
	if got := tr.NewSpan(); got != 0 {
		t.Errorf("nil NewSpan = %d, want 0", got)
	}
	if tr.WithHost("h") != nil || tr.WithClock(&fakeClock{}) != nil {
		t.Error("derived views of a nil tracer must stay nil")
	}
	if tr.Now() != 0 || tr.Host() != "" {
		t.Error("nil tracer accessors must return zero values")
	}
	if New(nil) != nil {
		t.Error("New(nil) must return the disabled (nil) tracer")
	}
}

func TestTracerStampsHostAndClock(t *testing.T) {
	ring := NewRing(8)
	clk := &fakeClock{t: 42}
	tr := New(ring).WithClock(clk).WithHost("hostA")
	tr.Instant(CatVM, "vm.pageout", 4096)
	clk.t = 50
	tr.Emit(Event{At: tr.Now(), Phase: Complete, Dur: 3, Cat: CatOp, Name: "copyin"})
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].At != 42 || evs[0].Host != "hostA" || evs[0].Name != "vm.pageout" {
		t.Errorf("instant event wrong: %+v", evs[0])
	}
	if evs[1].At != 50 || evs[1].Host != "hostA" {
		t.Errorf("emitted event wrong: %+v", evs[1])
	}
}

func TestSpanIDsSharedAcrossViews(t *testing.T) {
	tr := New(&countSink{})
	a := tr.WithHost("a")
	b := tr.WithHost("b")
	if s1, s2, s3 := a.NewSpan(), b.NewSpan(), tr.NewSpan(); s1 != 1 || s2 != 2 || s3 != 3 {
		t.Errorf("span ids not shared: %d %d %d", s1, s2, s3)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Bytes: i})
	}
	if r.Len() != 3 || r.Total() != 5 || r.Dropped() != 2 {
		t.Fatalf("len=%d total=%d dropped=%d", r.Len(), r.Total(), r.Dropped())
	}
	evs := r.Events()
	for i, want := range []int{2, 3, 4} {
		if evs[i].Bytes != want {
			t.Errorf("event %d bytes = %d, want %d", i, evs[i].Bytes, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Total() != 0 {
		t.Error("Reset did not clear the ring")
	}
}

func TestChromeExportWellFormed(t *testing.T) {
	ex := NewChromeExporter()
	ex.SetProcess(1, "Figure 3")
	tr := New(ex).WithHost("hostA")
	tr.Emit(Event{At: 5, Dur: 2, Phase: Complete, Cat: CatOp, Name: "copyin", Sem: "copy", Bytes: 100, Span: 1})
	tr.Emit(Event{At: 1, Phase: Begin, Cat: CatOp, Name: "output", Span: 1})
	tr.Emit(Event{At: 9, Phase: End, Cat: CatOp, Name: "output", Span: 1})
	tr.WithHost("hostB").Emit(Event{At: 7, Phase: Instant, Cat: CatVM, Name: "vm.pageout"})

	var buf bytes.Buffer
	if _, err := ex.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	lastTS := map[float64]float64{}
	sawMeta := false
	asyncPairs := map[string]int{} // cat/id/name → begin minus end count
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event without ph: %v", ev)
		}
		if ph == "M" {
			sawMeta = true
			continue
		}
		pid := ev["pid"].(float64)
		ts := ev["ts"].(float64)
		if ts < lastTS[pid] {
			t.Errorf("timestamps not monotonic within pid %v: %v after %v", pid, ts, lastTS[pid])
		}
		lastTS[pid] = ts
		switch ph {
		case "X":
			if dur, ok := ev["dur"].(float64); !ok || dur < 0 {
				t.Errorf("complete event without non-negative dur: %v", ev)
			}
		case "b", "e":
			id, ok := ev["id"].(float64)
			if !ok || id == 0 {
				t.Errorf("async event without id: %v", ev)
			}
			key := ev["cat"].(string) + "/" + ev["name"].(string)
			if ph == "b" {
				asyncPairs[key]++
			} else {
				asyncPairs[key]--
			}
		}
	}
	if !sawMeta {
		t.Error("no metadata records (process/thread names) in export")
	}
	for key, n := range asyncPairs {
		if n != 0 {
			t.Errorf("unbalanced async begin/end for %s: %d", key, n)
		}
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := &countSink{}, &countSink{}
	s := Multi(a, b)
	s.Emit(Event{})
	s.Emit(Event{})
	if a.n != 2 || b.n != 2 {
		t.Errorf("fan-out counts: %d %d, want 2 2", a.n, b.n)
	}
}

func BenchmarkNilTracerEmit(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Name: "copyin"})
	}
}

func BenchmarkRingEmit(b *testing.B) {
	tr := New(NewRing(1024)).WithHost("hostA")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{At: sim.Time(i), Phase: Complete, Cat: CatOp, Name: "copyin"})
	}
}
