package genie_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/genie"
)

func TestChannelThroughFacade(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	a := net.HostA().NewProcess()
	b := net.HostB().NewProcess()
	ea, eb, err := net.NewChannel(a, b, 50, genie.EmulatedCopy, 8192, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ea.Credits() != 3 {
		t.Fatalf("credits = %d, want 3", ea.Credits())
	}
	if err := ea.Send([]byte("facade message")); err != nil {
		t.Fatal(err)
	}
	net.Run()
	m, ok := eb.Recv()
	if !ok {
		t.Fatal("no delivery")
	}
	if string(m.Data()[:14]) != "facade message" {
		t.Fatalf("got %q", m.Data()[:14])
	}
	if err := m.Release(); err != nil {
		t.Fatal(err)
	}
	if ea.Credits() != 3 {
		t.Fatalf("credit not returned: %d", ea.Credits())
	}
}

func TestChecksumThroughFacade(t *testing.T) {
	cfg := genie.DefaultConfig()
	cfg.Checksum = genie.ChecksumSeparate
	net, err := genie.New(genie.WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	tx := net.HostA().NewProcess()
	rx := net.HostB().NewProcess()
	const n = 4096
	src, _ := tx.Brk(n)
	dst, _ := rx.Brk(n)
	if err := tx.Write(src, bytes.Repeat([]byte{3}, n)); err != nil {
		t.Fatal(err)
	}
	in, err := rx.Input(1, genie.Copy, dst, n)
	if err != nil {
		t.Fatal(err)
	}
	net.HostA().CorruptNextTx(7)
	if _, err := tx.Output(1, genie.Copy, src, n); err != nil {
		t.Fatal(err)
	}
	net.Run()
	if !errors.Is(in.Err, genie.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", in.Err)
	}
}

// TestProcessExitThroughFacade: an exiting process returns its frames,
// so a second process can fill the same memory the first one filled.
func TestProcessExitThroughFacade(t *testing.T) {
	net, err := genie.New(genie.WithMemory(256))
	if err != nil {
		t.Fatal(err)
	}
	first := net.HostA().NewProcess()
	n := fillPages(t, first, 512)
	if n == 0 || n == 512 {
		t.Fatalf("first process wrote %d pages into a 256-frame host", n)
	}
	first.Exit()
	if got := fillPages(t, net.HostA().NewProcess(), n); got != n {
		t.Fatalf("frames not reclaimed on exit: second process wrote %d of the %d pages the first one held", got, n)
	}
}

func TestSendLocalThroughFacade(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	a := net.HostA().NewProcess()
	b := net.HostA().NewProcess()
	va, _ := a.Brk(4096)
	if err := a.Write(va, []byte("ipc via facade")); err != nil {
		t.Fatal(err)
	}
	dva, err := a.SendLocal(b, va, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 14)
	if err := b.Read(dva, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "ipc via facade" {
		t.Fatalf("got %q", got)
	}
}

// TestNegativeConfigErrors: misuse reachable through the public facade
// must surface as returned errors, never as panics (the mem/vm panic
// audit keeps panics for internal invariants only).
func TestNegativeConfigErrors(t *testing.T) {
	if _, err := genie.New(genie.WithMemory(-1)); err == nil {
		t.Fatal("negative memory size accepted")
	}
	if _, err := genie.NewCluster(genie.RingTopology(3), 1, genie.WithMemory(-1)); err == nil {
		t.Fatal("negative memory size accepted by a cluster")
	}
}

// TestBadLengthThroughFacade: an empty, negative or over-frame length
// is a returned error through the facade, never a panic (core's
// TestSystemAllocatedOutputErrors checks the same lengths for
// ErrBadBuffer).
func TestBadLengthThroughFacade(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	p := net.HostA().NewProcess()
	va, _ := p.Brk(4096)
	for _, n := range []int{0, -1, 1 << 30} {
		if _, err := p.Output(1, genie.EmulatedCopy, va, n); err == nil {
			t.Errorf("Output length %d accepted", n)
		}
		if _, err := p.Input(1, genie.Copy, va, n); err == nil {
			t.Errorf("Input length %d accepted", n)
		}
	}
}

// TestUnmatchedPortDropsThroughFacade: under early demultiplexing a
// datagram with no posted input never reaches the framework — the
// adapter has nowhere to place it and drops it — so an input posted on
// that port afterwards receives the next datagram, not the dropped one.
func TestUnmatchedPortDropsThroughFacade(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	tx := net.HostA().NewProcess()
	rx := net.HostB().NewProcess()
	va, _ := tx.Brk(4096)
	if err := tx.Write(va, []byte("nobody listens")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Output(9, genie.EmulatedCopy, va, 4096); err != nil {
		t.Fatal(err)
	}
	net.Run()

	if err := tx.Write(va, []byte("second datagram")); err != nil {
		t.Fatal(err)
	}
	dst, _ := rx.Brk(4096)
	_, in, err := net.Transfer(tx, rx, 9, genie.EmulatedCopy, va, dst, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 15)
	if err := rx.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "second datagram" {
		t.Errorf("input on the unmatched port got %q, want the second datagram", got)
	}
	if s := net.HostB().Stats(); s.Inputs != 1 {
		t.Errorf("receiver completed %d inputs, want 1", s.Inputs)
	}
}
