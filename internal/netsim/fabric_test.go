package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// newFabricHosts attaches n EarlyDemux NICs to a fabric, each on its own
// engine shard from a cluster, and returns everything wired with Post.
func newFabricHosts(t *testing.T, n, workers int, perByte, fixed float64) (*sim.Cluster, *Fabric, []*NIC) {
	t.Helper()
	c, err := sim.NewCluster(n, sim.Duration(fixed), workers)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(perByte, fixed, c.Post)
	nics := make([]*NIC, n)
	for i := range nics {
		nic, err := NewNIC(c.Shard(i), NICConfig{Name: fmt.Sprintf("h%d", i), Buffering: EarlyDemux})
		if err != nil {
			t.Fatal(err)
		}
		if id := f.Attach(c.Shard(i), nic); id != i {
			t.Fatalf("attach id = %d, want %d", id, i)
		}
		nics[i] = nic
	}
	return c, f, nics
}

// TestFabricRoutedDelivery checks a frame follows its virtual circuit —
// including the switch's store-and-forward hop — and that the end-to-end
// time is sender serialization + fixed latency + egress serialization.
func TestFabricRoutedDelivery(t *testing.T) {
	const perByte, fixed = 0.0598, 130.0
	c, f, nics := newFabricHosts(t, 3, 1, perByte, fixed)
	if err := f.Route(0, 5, 2); err != nil {
		t.Fatal(err)
	}
	buf := &hostBuffer{data: make([]byte, 64)}
	nics[2].PostInput(5, buf)
	var got Packet
	nics[2].SetRxHandler(func(p Packet) { got = p })
	nics[1].SetRxHandler(func(Packet) { t.Fatal("unrouted host received traffic") })

	payload := []byte("switched frame")
	if err := nics[0].TransmitDatagramBuf(5, mem.BufBytes(payload), nil); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if got.Port != 5 || !got.Direct {
		t.Fatalf("packet = %+v", got)
	}
	if !bytes.Equal(buf.data[:len(payload)], payload) {
		t.Fatal("payload not delivered into posted buffer")
	}
	// Serialize on the sender wire, cross at fixed latency, then
	// serialize again through the destination egress port.
	wantT := 2*perByte*float64(len(payload)) + fixed
	if math.Abs(float64(got.Arrival)-wantT) > 1e-9 {
		t.Fatalf("arrival = %v, want %v", got.Arrival, wantT)
	}
}

// TestFabricNoRoute pins the error for transmitting on a port with no
// installed circuit, and for out-of-range route installs.
func TestFabricNoRoute(t *testing.T) {
	_, f, nics := newFabricHosts(t, 2, 1, 0.05, 100)
	if err := nics[0].TransmitDatagramBuf(9, mem.BufBytes([]byte("x")), nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if err := f.Route(0, 1, 7); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := f.Route(-1, 1, 0); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	eng := sim.New()
	lone, err := NewNIC(eng, NICConfig{Name: "lone", Buffering: EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	if err := lone.TransmitDatagramBuf(0, mem.BufBytes([]byte("x")), nil); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("unattached err = %v, want ErrNotAttached", err)
	}
}

// TestFabricIncastSerializesEgress has every other host converge on host
// 0 simultaneously: frames must queue behind each other on host 0's
// egress port, and the arrival schedule must be identical at any worker
// count — the switch resolves contention in the destination engine's
// deterministic order, not in goroutine order.
func TestFabricIncastSerializesEgress(t *testing.T) {
	const senders = 6
	const perByte, fixed = 0.1, 100.0
	const size = 1000
	run := func(workers int) []sim.Time {
		c, f, nics := newFabricHosts(t, senders+1, workers, perByte, fixed)
		for s := 1; s <= senders; s++ {
			if err := f.Route(s, s, 0); err != nil {
				t.Fatal(err)
			}
			nics[0].PostInput(s, &hostBuffer{data: make([]byte, size)})
		}
		var arrivals []sim.Time
		nics[0].SetRxHandler(func(p Packet) { arrivals = append(arrivals, p.Arrival) })
		payload := make([]byte, size)
		for s := 1; s <= senders; s++ {
			if err := nics[s].TransmitDatagramBuf(s, mem.BufBytes(payload), nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Run()
		return arrivals
	}
	serial := run(1)
	if len(serial) != senders {
		t.Fatalf("delivered %d frames, want %d", len(serial), senders)
	}
	// All frames reach the switch at the same instant; the egress port
	// then spaces deliveries exactly one serialization time apart.
	first := sim.Time(perByte*size + fixed + perByte*size)
	for i, at := range serial {
		want := first + sim.Time(float64(i)*perByte*size)
		if math.Abs(float64(at-want)) > 1e-6 {
			t.Fatalf("arrival %d = %v, want %v", i, at, want)
		}
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if len(got) != len(serial) {
			t.Fatalf("workers=%d delivered %d frames, want %d", workers, len(got), len(serial))
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d arrival %d = %v, serial %v", workers, i, got[i], serial[i])
			}
		}
	}
}
