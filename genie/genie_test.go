package genie_test

import (
	"bytes"
	"testing"

	"repro/genie"
)

func TestQuickstartFlow(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	sender := net.HostA().NewProcess()
	receiver := net.HostB().NewProcess()

	payload := []byte("hello through emulated copy semantics")
	buf, err := sender.Brk(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Write(buf, payload); err != nil {
		t.Fatal(err)
	}
	dst, err := receiver.Brk(4096)
	if err != nil {
		t.Fatal(err)
	}
	out, in, err := net.Transfer(sender, receiver, 1, genie.EmulatedCopy, buf, dst, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if !(in.CompletedAt > out.StartedAt) {
		t.Fatal("timestamps not ordered")
	}
}

// fillPages writes one page at a time into p until a write fails, at
// most limit pages, and returns how many it wrote.
func fillPages(t *testing.T, p *genie.Process, limit int) int {
	t.Helper()
	page := make([]byte, 4096)
	for n := 0; n < limit; n++ {
		va, err := p.Brk(len(page))
		if err != nil {
			t.Fatal(err)
		}
		if p.Write(va, page) != nil {
			return n
		}
	}
	return limit
}

// TestOptions checks that the facade's options reach the testbed:
// WithMemory bounds each host's physical memory, and WithConfig's
// tunables decide whether an emulated-copy output converts to copy.
func TestOptions(t *testing.T) {
	small, err := genie.New(genie.WithMemory(256))
	if err != nil {
		t.Fatal(err)
	}
	if n := fillPages(t, small.HostA().NewProcess(), 512); n == 0 || n >= 256 {
		t.Fatalf("a 256-frame host took %d application pages, want between 1 and 255", n)
	}
	large, err := genie.New(genie.WithMemory(1024))
	if err != nil {
		t.Fatal(err)
	}
	if n := fillPages(t, large.HostA().NewProcess(), 512); n != 512 {
		t.Fatalf("a 1024-frame host took only %d of 512 application pages", n)
	}

	converted := func(opts ...genie.Option) bool {
		net, err := genie.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		sender := net.HostA().NewProcess()
		receiver := net.HostB().NewProcess()
		payload := bytes.Repeat([]byte{0x42}, 8192)
		buf, _ := sender.Brk(len(payload))
		if err := sender.Write(buf, payload); err != nil {
			t.Fatal(err)
		}
		dst, _ := receiver.Brk(len(payload))
		out, in, err := net.Transfer(sender, receiver, 9, genie.EmulatedCopy, buf, dst, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if err := receiver.Read(in.Addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted")
		}
		return out.Converted()
	}
	cfg := genie.DefaultConfig()
	cfg.EmCopyOutputThreshold = 65536
	if converted(genie.WithConfig(genie.DefaultConfig())) || !converted(genie.WithConfig(cfg)) {
		t.Fatal("WithConfig's emulated-copy output threshold did not decide the conversion to copy")
	}
}

func TestSystemAllocatedAPI(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	sender := net.HostA().NewProcess()
	receiver := net.HostB().NewProcess()
	r, err := sender.AllocIOBuffer(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.Write(r.Start(), []byte("moved")); err != nil {
		t.Fatal(err)
	}
	_, in, err := net.Transfer(sender, receiver, 1, genie.Move, r.Start(), 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if in.Region == nil {
		t.Fatal("move input did not return a region")
	}
	got := make([]byte, 5)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "moved" {
		t.Fatalf("got %q", got)
	}
	if err := receiver.FreeIOBuffer(in.Region); err != nil {
		t.Fatal(err)
	}
}

func TestAllSemanticsThroughFacade(t *testing.T) {
	for _, sem := range genie.AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			net, err := genie.New()
			if err != nil {
				t.Fatal(err)
			}
			sender := net.HostA().NewProcess()
			receiver := net.HostB().NewProcess()
			const length = 2 * 4096
			payload := bytes.Repeat([]byte{7}, length)
			var src, dst genie.Addr
			if sem.SystemAllocated() {
				r, err := sender.AllocIOBuffer(length)
				if err != nil {
					t.Fatal(err)
				}
				src = r.Start()
			} else {
				src, _ = sender.Brk(length)
				dst, _ = receiver.Brk(length)
			}
			if err := sender.Write(src, payload); err != nil {
				t.Fatal(err)
			}
			_, in, err := net.Transfer(sender, receiver, 1, sem, src, dst, length)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, length)
			if err := receiver.Read(in.Addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("payload corrupted")
			}
		})
	}
}

func TestNoAddrSystemAllocated(t *testing.T) {
	net, err := genie.New()
	if err != nil {
		t.Fatal(err)
	}
	tx := net.HostA().NewProcess()
	rx := net.HostB().NewProcess()
	r, err := tx.AllocIOBuffer(8192)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(r.Start(), []byte("system placed")); err != nil {
		t.Fatal(err)
	}
	_, in, err := net.Transfer(tx, rx, 1, genie.EmulatedMove, r.Start(), genie.NoAddr, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if in.Addr == genie.NoAddr {
		t.Fatal("system-allocated input reported NoAddr as its landing address")
	}
	got := make([]byte, 13)
	if err := rx.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "system placed" {
		t.Fatalf("got %q", got)
	}
}
