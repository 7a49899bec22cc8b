package genie_test

import (
	"testing"

	"repro/genie"
)

// The workload facade runs the backpressure study end to end: a
// trimmed file-server sweep must locate copy's rule-3 transition, come
// back digest-identical across the compared worker counts, and expose
// the typed per-point measurements.
func TestWorkloadFacade(t *testing.T) {
	stats, err := genie.RunWorkload(
		genie.WithWorkloadSemantics(genie.Copy),
		genie.WithDepths(1, 4),
		genie.WithLoads(2),
		genie.WithWorkloadWorkers(1, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Deterministic {
		t.Fatalf("sweep not deterministic across workers: %+v", stats.Runs)
	}
	if len(stats.Runs) != 2 || stats.Runs[0].Workers != 1 || stats.Runs[1].Workers != 3 {
		t.Fatalf("runs = %+v, want worker counts 1 and 3", stats.Runs)
	}
	s := stats.Result.Scheme("copy")
	if s == nil {
		t.Fatal("no copy scheme")
	}
	if s.TransitionDepth != 4 {
		t.Errorf("transition depth = %d, want 4", s.TransitionDepth)
	}
	var shallow, deep *genie.WorkloadPoint
	for i := range s.Points {
		switch s.Points[i].Depth {
		case 1:
			shallow = &s.Points[i]
		case 4:
			deep = &s.Points[i]
		}
	}
	if shallow == nil || deep == nil {
		t.Fatalf("missing swept depths: %+v", s.Points)
	}
	if !shallow.Bimodal || deep.Bimodal {
		t.Errorf("bimodality: depth 1 %v, depth 4 %v; want true, false",
			shallow.Bimodal, deep.Bimodal)
	}
	if deep.Latency.P99 < deep.Latency.P50 || deep.Latency.N == 0 {
		t.Errorf("implausible latency summary %+v", deep.Latency)
	}
	if deep.KernelHWM <= shallow.KernelHWM {
		t.Errorf("memory creep missing: depth 4 kernel HWM %d <= depth 1's %d",
			deep.KernelHWM, shallow.KernelHWM)
	}
}

// Scenario plumbing: every named scenario runs through the facade, and
// an unknown one reports a configuration error.
func TestWorkloadFacadeScenarios(t *testing.T) {
	if got := genie.WorkloadScenarios(); len(got) != 3 {
		t.Fatalf("scenarios = %v", got)
	}
	for _, sc := range []string{genie.StreamScenario, genie.FanOutScenario} {
		stats, err := genie.RunWorkload(
			genie.WithScenario(sc),
			genie.WithWorkloadSemantics(genie.EmulatedCopy),
			genie.WithDepths(2),
			genie.WithLoads(1),
			genie.WithOps(6),
			genie.WithWorkloadWorkers(1),
		)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if stats.Scenario != sc || len(stats.Result.Schemes) != 1 {
			t.Errorf("%s: unexpected result %+v", sc, stats)
		}
	}
	if _, err := genie.RunWorkload(genie.WithScenario("torrent")); err == nil {
		t.Error("unknown scenario did not error")
	}
}

// The fault options compose: an armed sweep still reports deterministic
// digests (per-host derived fault streams), and the injected loss keeps
// the shallow queue bimodal.
func TestWorkloadFacadeFaults(t *testing.T) {
	spec, err := genie.ParseFaultSpec("seed=7,drop=0.02")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := genie.RunWorkload(
		genie.WithWorkloadSemantics(genie.Copy),
		genie.WithDepths(4),
		genie.WithLoads(2),
		genie.WithWorkloadFaults(spec),
		genie.WithWorkloadWorkers(1, 2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Deterministic {
		t.Fatalf("fault-armed sweep not deterministic: %+v", stats.Runs)
	}
	p := stats.Result.Scheme("copy").Points[0]
	if p.Retransmits == 0 || !p.Bimodal {
		t.Errorf("injected loss left no trace: %+v", p)
	}
}

// A worker count below 1 is an error, not silently clamped to 1.
func TestWorkloadFacadeRejectsBadWorkers(t *testing.T) {
	if _, err := genie.RunWorkload(genie.WithWorkloadWorkers(0)); err == nil {
		t.Error("worker count 0 did not error")
	}
}
