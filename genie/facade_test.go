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

func TestMTUThroughFacade(t *testing.T) {
	net, err := genie.New(genie.WithMTU(9180))
	if err != nil {
		t.Fatal(err)
	}
	tx := net.HostA().NewProcess()
	rx := net.HostB().NewProcess()
	const n = 15 * 4096
	src, _ := tx.Brk(n)
	dst, _ := rx.Brk(n)
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := tx.Write(src, payload); err != nil {
		t.Fatal(err)
	}
	_, in, err := net.Transfer(tx, rx, 1, genie.EmulatedCopy, src, dst, n)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n)
	if err := rx.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("fragmented transfer corrupted")
	}
}

func TestDemandPagingThroughFacade(t *testing.T) {
	net, err := genie.New(genie.WithDemandPaging(), genie.WithMemory(96))
	if err != nil {
		t.Fatal(err)
	}
	p := net.HostA().NewProcess()
	// More data than memory: must succeed via pageout.
	va, err := p.Brk(64 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := p.Write(va, data); err != nil {
		t.Fatalf("write under pressure: %v", err)
	}
	got := make([]byte, len(data))
	if err := p.Read(va, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("demand-paged data corrupted")
	}
}

func TestProcessExitThroughFacade(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	p := net.HostA().NewProcess()
	free := net.HostA().FreeFrames()
	va, _ := p.Brk(8 * 4096)
	if err := p.Write(va, make([]byte, 8*4096)); err != nil {
		t.Fatal(err)
	}
	p.Exit()
	if got := net.HostA().FreeFrames(); got != free {
		t.Fatalf("frames not reclaimed on exit: %d vs %d", got, free)
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
