package experiments

import "testing"

// TestIncastDeterministicAcrossWorkers runs a scaled-down incast (the
// full 64-host sweep is geniebench's job) and checks the digest and
// delivery count are identical at every worker count.
func TestIncastDeterministicAcrossWorkers(t *testing.T) {
	rep, err := RunIncast(ClusterBenchConfig{
		Hosts:    17,
		Rounds:   3,
		MsgBytes: 4096,
		Workers:  []int{1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Fatalf("incast digests diverge across workers: %+v", rep.Runs)
	}
	wantDeliveries := uint64(16 * 3)
	for _, r := range rep.Runs {
		if r.Records != wantDeliveries {
			t.Fatalf("workers=%d delivered %d, want %d", r.Workers, r.Records, wantDeliveries)
		}
	}
	if rep.FinalTimeUS <= 0 {
		t.Fatal("final simulated time not positive")
	}
}

// TestRingDeterministicAcrossWorkers does the same for the Bytes-plane
// halo exchange.
func TestRingDeterministicAcrossWorkers(t *testing.T) {
	rep, err := RunRing(ClusterBenchConfig{
		Hosts:    6,
		Rounds:   3,
		MsgBytes: 16384,
		Workers:  []int{1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Deterministic {
		t.Fatalf("ring digests diverge across workers: %+v", rep.Runs)
	}
	// Every link delivers both directions every round.
	wantDeliveries := uint64(6 * 2 * 3)
	for _, r := range rep.Runs {
		if r.Records != wantDeliveries {
			t.Fatalf("workers=%d delivered %d, want %d", r.Workers, r.Records, wantDeliveries)
		}
	}
}

// TestIncastFullScale pins the deliverable configuration itself: the
// 64-host incast at 1 and 4 workers. Kept to two rounds so the suite
// stays fast; geniebench cluster runs the full version.
func TestIncastFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale incast skipped in -short")
	}
	rep, err := RunIncast(ClusterBenchConfig{
		Rounds:  2,
		Workers: []int{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hosts != 64 {
		t.Fatalf("default hosts = %d, want 64", rep.Hosts)
	}
	if !rep.Deterministic {
		t.Fatalf("64-host incast digests diverge: %+v", rep.Runs)
	}
	if want := uint64(63 * 2); rep.Runs[0].Records != want {
		t.Fatalf("deliveries = %d, want %d", rep.Runs[0].Records, want)
	}
}
