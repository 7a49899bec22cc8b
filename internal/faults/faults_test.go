package faults

import (
	"strings"
	"testing"
)

// TestSpecParseRoundTrip pins the CLI syntax: String() output reparses
// to the same spec, and representative inputs parse to the right
// fields.
func TestSpecParseRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Seed: 1},
		{Seed: 42, Drop: 0.05, Duplicate: 0.03, Reorder: 0.02, Corrupt: 0.01, AllocFail: 0.02, PoolDeny: 0.04},
	}
	for _, s := range specs {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round trip %q: got %+v, want %+v", s.String(), got, s)
		}
	}
	got, err := ParseSpec(" seed=7 , drop=0.5 , duplicate=0.25 ")
	if err != nil {
		t.Fatal(err)
	}
	if want := (Spec{Seed: 7, Drop: 0.5, Duplicate: 0.25}); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if got, err := ParseSpec(""); err != nil || got.Enabled() {
		t.Errorf("empty spec: got %+v, %v; want disabled zero spec", got, err)
	}
}

// TestSpecParseErrors asserts malformed and out-of-range specs are
// rejected with diagnostics naming the offending field.
func TestSpecParseErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"drop", "not key=value"},
		{"seed=abc", "seed"},
		{"drop=oops", "drop"},
		{"banana=0.5", "unknown key"},
		{"drop=1.5", "drop"},
		{"corrupt=-0.1", "corrupt"},
		{"seed=1,drop=NaN", "drop"},
		{"drop=0.1,drop=0.2", "duplicate key"},
		{"dup=0.1,duplicate=0.2", "duplicate key"},
		{"seed=1,seed=2", "duplicate key"},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.in); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", c.in)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) error %q does not mention %q", c.in, err, c.wantSub)
		}
	}
}

// TestInjectorDeterminism asserts two injectors with the same spec make
// identical decision sequences, and Reset replays the same script.
func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{Seed: 99, Drop: 0.3, Duplicate: 0.2, Corrupt: 0.4}
	run := func(i *Injector) []bool {
		var out []bool
		for k := 0; k < 200; k++ {
			out = append(out, i.DropFrame(), i.DuplicateFrame())
			off, ok := i.CorruptFrame(1500)
			out = append(out, ok, off%2 == 0)
		}
		return out
	}
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	first := run(a)
	if second := run(b); !equalBools(first, second) {
		t.Error("same seed produced different decision sequences")
	}
	a.Reset()
	if replay := run(a); !equalBools(first, replay) {
		t.Error("Reset did not replay the identical fault script")
	}
	if a.Stats().Total() == 0 {
		t.Error("no faults fired at 30/20/40% rates over 200 frames")
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestZeroRateDrawsNothing asserts the identity-critical property: a
// decision with probability zero consumes no PRNG state, so a seed-only
// injector never diverges a simulation.
func TestZeroRateDrawsNothing(t *testing.T) {
	i, err := New(Spec{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if i == nil {
		t.Fatal("seed-only spec must attach an injector")
	}
	before := i.state
	for k := 0; k < 100; k++ {
		if i.DropFrame() || i.DuplicateFrame() || i.ReorderFrame() || i.FailAlloc() || i.DenyPool() {
			t.Fatal("zero-rate decision fired")
		}
		if _, ok := i.CorruptFrame(100); ok {
			t.Fatal("zero-rate corruption fired")
		}
	}
	if i.state != before {
		t.Error("zero-rate decisions advanced the PRNG")
	}
	if i.Stats() != (Stats{}) {
		t.Errorf("zero-rate decisions counted faults: %+v", i.Stats())
	}
}

// TestDisarmSuspendsDecisions asserts Disarm gates every decision and
// preserves the stream, and that nil injectors are safe everywhere.
func TestDisarmSuspendsDecisions(t *testing.T) {
	i, err := New(Spec{Seed: 3, Drop: maxRate, AllocFail: maxRate})
	if err != nil {
		t.Fatal(err)
	}
	i.Disarm()
	before := i.state
	for k := 0; k < 50; k++ {
		if i.DropFrame() || i.FailAlloc() {
			t.Fatal("disarmed injector fired")
		}
	}
	if i.state != before {
		t.Error("disarmed decisions advanced the PRNG")
	}
	i.Arm()
	fired := false
	for k := 0; k < 50; k++ {
		fired = fired || i.DropFrame()
	}
	if !fired {
		t.Error("rearmed injector never fired at the maximum rate")
	}

	var nilInj *Injector
	nilInj.Reset()
	nilInj.Arm()
	nilInj.Disarm()
	if nilInj.Armed() || nilInj.DropFrame() || nilInj.FailAlloc() || nilInj.DenyPool() {
		t.Error("nil injector fired")
	}
	if nilInj.Spec().Enabled() || nilInj.Stats().Total() != 0 {
		t.Error("nil injector reported state")
	}
}

// TestNewRejectsInvalidAndZero pins constructor behavior: zero spec →
// nil injector, invalid spec → error.
func TestNewRejectsInvalidAndZero(t *testing.T) {
	if i, err := New(Spec{}); err != nil || i != nil {
		t.Errorf("New(zero) = %v, %v; want nil, nil", i, err)
	}
	if _, err := New(Spec{Seed: 1, Drop: 2}); err == nil {
		t.Error("New with drop=2 succeeded")
	}
}

// TestCorruptOffsetsInRange asserts corruption offsets stay within the
// frame for many draws.
func TestCorruptOffsetsInRange(t *testing.T) {
	i, err := New(Spec{Seed: 11, Corrupt: maxRate})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		n := 1 + k%97
		if off, ok := i.CorruptFrame(n); ok && (off < 0 || off >= n) {
			t.Fatalf("offset %d outside [0, %d)", off, n)
		}
	}
	if _, ok := i.CorruptFrame(0); ok {
		t.Error("zero-length frame corrupted")
	}
}
