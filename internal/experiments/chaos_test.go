package experiments

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/faults"
)

// chaosSpec is the pinned fault mix the smoke tests run: every fault
// class fires, at rates low enough that bounded recovery always
// converges.
func chaosSpec(seed uint64) faults.Spec {
	return faults.Spec{
		Seed:      seed,
		Drop:      0.25,
		Duplicate: 0.15,
		Reorder:   0.15,
		Corrupt:   0.1,
		AllocFail: 0.05,
		PoolDeny:  0.2,
	}
}

// TestChaosRecovery is the tentpole acceptance test: under pinned
// seeds, every injected drop, duplication, reordering, corruption,
// allocation failure, and pool denial is eventually recovered — every
// message delivered exactly once with intact bytes — and every point
// conserves its resources (pools refilled, no leaked frames, event
// queue drained).
func TestChaosRecovery(t *testing.T) {
	for _, seed := range []uint64{1, 42} {
		rep, err := RunChaos(ChaosConfig{Spec: chaosSpec(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d:\n%s", seed, rep)
		}
		fired := rep.TotalFaults()
		if fired.Drops == 0 || fired.Duplicates == 0 || fired.Corruptions == 0 || fired.Reorders == 0 {
			t.Errorf("seed %d: fault classes never fired: %+v", seed, fired)
		}
		if rep.TotalRetransmits() == 0 {
			t.Errorf("seed %d: faults fired but nothing was retransmitted — recovery untested", seed)
		}
	}
}

// TestChaosDeterministicReplay asserts a chaos run is a pure function
// of its spec: same seed, same report (per-point fault counts and
// recovery stats included).
func TestChaosDeterministicReplay(t *testing.T) {
	cfg := ChaosConfig{Spec: chaosSpec(7), Lengths: []int{512}}
	r1, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same spec produced different reports:\n%s\nvs\n%s", r1, r2)
	}
}

// TestChaosRejectsZeroSpec: a chaos run without faults is a
// misconfiguration, not a trivially green run.
func TestChaosRejectsZeroSpec(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{}); err == nil {
		t.Fatal("zero fault spec accepted")
	}
}

// TestZeroFaultIdentity asserts the injector's presence alone changes
// nothing: a seed-only (armed, never firing) spec measures every probed
// point identically to the fault-free default. The full-set version of
// this check is the sixth regime of
// TestFullSetByteIdenticalAcrossRegimes.
func TestZeroFaultIdentity(t *testing.T) {
	for _, length := range []int{4096, 16384} {
		base, err := Measure(Setup{}, core.EmulatedCopy, length)
		if err != nil {
			t.Fatal(err)
		}
		armed, err := Measure(Setup{Faults: faults.Spec{Seed: 1}}, core.EmulatedCopy, length)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, armed) {
			t.Errorf("%dB: armed injector perturbed the measurement:\n%+v\nvs\n%+v", length, base, armed)
		}
	}
}

// TestChaosDedupCountsPinned pins the reliable layer's delivery
// accounting on the two chaos seeds the CI smoke runs: per seed, the
// receivers' Delivered and Duplicates totals and a digest of every
// point's sender and receiver stats. The values were recorded with the
// receiver's dedup state as a map of every delivered sequence number;
// the cumulative counter and bitmap that replaced it must count the
// same frames as delivered and as duplicates.
func TestChaosDedupCountsPinned(t *testing.T) {
	pins := map[uint64]struct {
		delivered, duplicates uint64
		stats                 string
	}{
		1:  {72, 58, "f0e15473240a6aed"},
		42: {72, 55, "780f021a722c4d2d"},
	}
	for _, seed := range []uint64{1, 42} {
		rep, err := RunChaos(ChaosConfig{Spec: chaosSpec(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var delivered, duplicates uint64
		d := digest.New()
		for _, p := range rep.Points {
			delivered += p.Receiver.Delivered
			duplicates += p.Receiver.Duplicates
			d.Addf("%s %+v %+v\n", p.Name(), p.Sender, p.Receiver)
		}
		want := pins[seed]
		t.Logf("seed %d: delivered %d, duplicates %d, stats %s", seed, delivered, duplicates, d.Hex())
		if delivered != want.delivered || duplicates != want.duplicates || d.Hex() != want.stats {
			t.Errorf("seed %d: delivered %d, duplicates %d, stats digest %s; pinned %d, %d, %s",
				seed, delivered, duplicates, d.Hex(), want.delivered, want.duplicates, want.stats)
		}
	}
}
