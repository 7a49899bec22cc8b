package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// The file-server sweep at default settings is the CI-pinned backbone
// of the backpressure study: copy semantics must locate its rule-3
// transition at depth 4 (= the default pipeline), with the shallow side
// bimodal in the full sense — drops, retransmits, collapsed throughput,
// stretched tail — and the deep side clean, paying only memory.
func TestFileServerCopyTransition(t *testing.T) {
	res, err := Run(Config{Semantics: []core.Semantics{core.Copy}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scheme("copy")
	if s == nil {
		t.Fatal("no copy scheme in result")
	}
	if s.TransitionDepth != 4 {
		t.Fatalf("copy transition depth = %d, want 4", s.TransitionDepth)
	}
	if len(s.Points) != 5*3 {
		t.Fatalf("points = %d, want 15", len(s.Points))
	}
	at := func(depth int, load float64) *Point {
		for i := range s.Points {
			if s.Points[i].Depth == depth && s.Points[i].Load == load {
				return &s.Points[i]
			}
		}
		t.Fatalf("no point depth=%d load=%v", depth, load)
		return nil
	}
	shallow, deep := at(1, 2), at(4, 2)
	if !shallow.Bimodal || shallow.Drops == 0 || shallow.Retransmits == 0 {
		t.Errorf("depth 1 at heaviest load: %+v, want bimodal with drops and retransmits", shallow)
	}
	if shallow.Latency.P99 < 3*shallow.Latency.P50 {
		t.Errorf("depth 1 tail p99=%v p50=%v, want stretched at least 3x",
			shallow.Latency.P99, shallow.Latency.P50)
	}
	if deep.Bimodal || deep.Drops != 0 || deep.Retransmits != 0 {
		t.Errorf("depth 4 at heaviest load: %+v, want clean", deep)
	}
	if shallow.AchievedMBps*3 > deep.AchievedMBps {
		t.Errorf("throughput collapse missing: depth 1 %.2f vs depth 4 %.2f MB/s",
			shallow.AchievedMBps, deep.AchievedMBps)
	}
	// Rule-3 memory creep: the depth the clean side pays for shows up as
	// a monotone kernel-pool high-water mark (the copy path's preposted
	// window buffers are committed kernel pages).
	prev := 0
	for _, d := range []int{1, 2, 4, 8, 16} {
		hwm := at(d, 2).KernelHWM
		if hwm <= prev {
			t.Errorf("kernel HWM not increasing: depth %d has %d pages, previous %d", d, hwm, prev)
		}
		prev = hwm
	}
	if res.CompletedOps == 0 || res.Digest == "" {
		t.Errorf("result not digested: %+v", res)
	}
}

// The in-place family dodges the receive-window bottleneck entirely:
// no receive-side copy means input completions are fast, window
// buffers recycle before the pipelined burst overlaps, and the
// heaviest default load never goes bimodal even at depth 1. The
// transition depth is a per-semantics number — that is the point of
// sweeping schemes.
func TestFileServerSchemesDiverge(t *testing.T) {
	res, err := Run(Config{
		Semantics: []core.Semantics{core.Copy, core.Share, core.EmulatedWeakMove},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{
		"copy":               4,
		"share":              4,
		"emulated weak move": 1,
	} {
		s := res.Scheme(name)
		if s == nil {
			t.Fatalf("no %q scheme", name)
		}
		if s.TransitionDepth != want {
			t.Errorf("%s transition depth = %d, want %d", name, s.TransitionDepth, want)
		}
	}
}

// The whole study is a deterministic simulation: the digest — every
// latency sample, completion time, counter, high-water mark, and
// per-host stat struct — must be bit-identical at any worker count,
// and so must the reported schemes.
func TestDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{
		Semantics: []core.Semantics{core.Copy, core.Share},
		Depths:    []int{1, 4},
		Loads:     []float64{2},
		Ops:       8,
	}
	base, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := Run(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest != base.Digest {
			t.Errorf("digest at %d workers = %s, serial %s", workers, got.Digest, base.Digest)
		}
		if !reflect.DeepEqual(got.Schemes, base.Schemes) {
			t.Errorf("schemes diverge at %d workers", workers)
		}
	}
}

// Fault-armed sweeps stay deterministic too — the injector streams are
// derived per host — and injected wire loss keeps every depth bimodal:
// a queue cannot buffer away a lossy link.
func TestFaultArmedDeterministic(t *testing.T) {
	cfg := Config{
		Semantics: []core.Semantics{core.Copy},
		Depths:    []int{4, 16},
		Loads:     []float64{2},
		Faults:    faults.Spec{Seed: 7, Drop: 0.02, Corrupt: 0.01},
	}
	base, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != base.Digest {
		t.Errorf("fault-armed digest at 3 workers = %s, serial %s", got.Digest, base.Digest)
	}
	s := base.Scheme("copy")
	if s.TransitionDepth != -1 {
		t.Errorf("transition depth under wire loss = %d, want -1", s.TransitionDepth)
	}
	for _, p := range s.Points {
		if p.Completed == 0 || p.Retransmits == 0 {
			t.Errorf("fault-armed point %+v: want completions with retransmits", p)
		}
	}
}

// The stream scenario is rule 3 in its purest form: under sustained
// overload the sender queue sheds at every depth (a deeper queue only
// delays blocking), the queue high-water mark pins at capacity, and
// median latency grows with depth — the queue converts loss into
// latency, it does not buy timeliness.
func TestStreamRule3(t *testing.T) {
	res, err := Run(Config{
		Scenario:  Stream,
		Semantics: []core.Semantics{core.Copy},
		Ops:       40,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scheme("copy")
	if s.TransitionDepth != -1 {
		t.Errorf("stream transition depth = %d, want -1 under overload", s.TransitionDepth)
	}
	prevP50 := 0.0
	for _, p := range s.Points {
		switch p.Load {
		case 0.5:
			if p.Shed != 0 || p.Bimodal {
				t.Errorf("underloaded stream point %+v: want clean", p)
			}
		case 2:
			if p.Shed == 0 || !p.Bimodal {
				t.Errorf("overloaded stream point %+v: want shedding", p)
			}
			if p.QueueHWM != p.Depth {
				t.Errorf("depth %d queue HWM = %d, want pinned at capacity", p.Depth, p.QueueHWM)
			}
			if p.Latency.P50 <= prevP50 {
				t.Errorf("depth %d p50 = %v, want above previous depth's %v (queueing delay)",
					p.Depth, p.Latency.P50, prevP50)
			}
			prevP50 = p.Latency.P50
		}
	}
}

// Fan-out needs a deeper window than the file server to come clean:
// one recovering leg holds the whole scattered operation in the slow
// mode, so straggler amplification moves the transition outward.
func TestFanOutTransition(t *testing.T) {
	res, err := Run(Config{
		Scenario:  FanOut,
		Semantics: []core.Semantics{core.Copy},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Scheme("copy")
	if s.TransitionDepth != 8 {
		t.Fatalf("fan-out transition depth = %d, want 8", s.TransitionDepth)
	}
	for _, p := range s.Points {
		if p.Completed+p.Failed != uint64(res.Ops) {
			t.Errorf("point d=%d l=%v completed %d + failed %d, want %d ops accounted",
				p.Depth, p.Load, p.Completed, p.Failed, res.Ops)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"scenario", Config{Scenario: "torrent"}, "unknown scenario"},
		{"semantics", Config{Semantics: []core.Semantics{core.Semantics(99)}}, "invalid semantics"},
		{"depth", Config{Depths: []int{0}}, "depth 0 < 1"},
		{"load", Config{Loads: []float64{-1}}, "<= 0"},
		{"faults", Config{Faults: faults.Spec{Drop: 2}}, "drop"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.cfg, 1)
			if err == nil || !strings.Contains(strings.ToLower(err.Error()), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

// TestConfigRejectsBadKnobs: a non-finite or negative knob is refused
// before anything is simulated, never taken for its default or run as
// given (a NaN RTO used to stall the cluster's lookahead and panic).
func TestConfigRejectsBadKnobs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"load NaN", Config{Loads: []float64{nan}}, "load multiplier nan is not finite"},
		{"load +Inf", Config{Loads: []float64{1, inf}}, "load multiplier +inf is not finite"},
		{"load 0", Config{Loads: []float64{0}}, "load multiplier 0 <= 0"},
		{"think NaN", Config{ThinkUS: nan}, "thinkus nan"},
		{"think -Inf", Config{ThinkUS: -inf}, "thinkus -inf"},
		{"think negative", Config{ThinkUS: -1}, "thinkus -1"},
		{"stream rate NaN", Config{StreamMBps: nan}, "streammbps nan"},
		{"stream rate +Inf", Config{StreamMBps: inf}, "streammbps +inf"},
		{"rto NaN", Config{RTOUS: nan}, "rtous nan"},
		{"rto +Inf", Config{RTOUS: inf}, "rtous +inf"},
		{"rto negative", Config{RTOUS: -5}, "rtous -5"},
		{"clients", Config{Clients: -3}, "clients -3"},
		{"ops", Config{Ops: -1}, "ops -1"},
		{"msgbytes", Config{MsgBytes: -2048}, "msgbytes -2048"},
		{"pipeline", Config{Pipeline: -4}, "pipeline -4"},
		{"window", Config{Window: -2}, "window -2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Semantics, c.cfg.Depths = []core.Semantics{core.Copy}, []int{1}
			_, err := Run(c.cfg, 1)
			if err == nil || !strings.Contains(strings.ToLower(err.Error()), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestSchemeLookup(t *testing.T) {
	r := &Result{Schemes: []Scheme{{Semantics: "copy"}}}
	if r.Scheme("copy") == nil {
		t.Error("copy scheme not found")
	}
	if r.Scheme("nope") != nil {
		t.Error("phantom scheme found")
	}
	if got := Scenarios(); len(got) != 3 {
		t.Errorf("scenarios = %v", got)
	}
}
