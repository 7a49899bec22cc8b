package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/netsim"
)

func channelPair(t *testing.T, sem Semantics, bufSize, window int) (*Testbed, *Endpoint, *Endpoint) {
	t.Helper()
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux, FramesPerHost: 1024})
	if err != nil {
		t.Fatal(err)
	}
	a := tb.A.Genie.NewProcess()
	b := tb.B.Genie.NewProcess()
	ea, eb, err := NewChannel(a, b, 100, sem, bufSize, window)
	if err != nil {
		t.Fatal(err)
	}
	return tb, ea, eb
}

func TestChannelRoundTrip(t *testing.T) {
	for _, sem := range AllSemantics() {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tb, ea, eb := channelPair(t, sem, 8192, 4)
			msg := []byte("ping over " + sem.String())
			if err := ea.Send(msg); err != nil {
				t.Fatal(err)
			}
			tb.Run()
			m, ok := eb.Recv()
			if !ok {
				t.Fatal("no message delivered")
			}
			if m.Err() != nil {
				t.Fatal(m.Err())
			}
			if !bytes.Equal(m.Data()[:len(msg)], msg) {
				t.Fatalf("got %q", m.Data()[:len(msg)])
			}
			if err := m.Release(); err != nil {
				t.Fatal(err)
			}
			// Reply on the same channel.
			if err := eb.Send([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			tb.Run()
			r, ok := ea.Recv()
			if !ok {
				t.Fatal("no reply")
			}
			if string(r.Data()[:4]) != "pong" {
				t.Fatalf("reply %q", r.Data()[:4])
			}
			if err := r.Release(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestChannelWindowedStream(t *testing.T) {
	for _, sem := range []Semantics{EmulatedCopy, EmulatedShare, EmulatedWeakMove} {
		sem := sem
		t.Run(sem.String(), func(t *testing.T) {
			tb, ea, eb := channelPair(t, sem, 4096, 4)
			const total = 20
			sent, received := 0, 0
			// The application loop: fill the credit window, let the
			// simulation run, drain and release (returning credits),
			// repeat. Credit-based flow control guarantees the sender
			// never overruns the receiver's preposted buffers.
			for iter := 0; iter < 50 && received < total; iter++ {
				for sent < total {
					payload := bytes.Repeat([]byte{byte(sent)}, 512)
					if err := ea.Send(payload); err != nil {
						if errors.Is(err, ErrChannelFull) {
							break
						}
						t.Fatal(err)
					}
					sent++
				}
				tb.Run()
				for {
					m, ok := eb.Recv()
					if !ok {
						break
					}
					if m.Err() != nil {
						t.Fatal(m.Err())
					}
					want := byte(received)
					if m.Data()[0] != want {
						t.Fatalf("message %d: first byte %#x, want %#x (ordering broken)", received, m.Data()[0], want)
					}
					received++
					if err := m.Release(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if received != total {
				t.Fatalf("received %d of %d", received, total)
			}
		})
	}
}

func TestChannelBackpressure(t *testing.T) {
	_, ea, _ := channelPair(t, EmulatedCopy, 4096, 2)
	if err := ea.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ea.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ea.Send(make([]byte, 100)); !errors.Is(err, ErrChannelFull) {
		t.Fatalf("third send: err = %v, want ErrChannelFull", err)
	}
}

func TestChannelMessageTooBig(t *testing.T) {
	_, ea, _ := channelPair(t, Copy, 1024, 2)
	if err := ea.Send(make([]byte, 2048)); !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("err = %v, want ErrMessageTooBig", err)
	}
}

func TestChannelValidation(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	a := tb.A.Genie.NewProcess()
	b := tb.B.Genie.NewProcess()
	if _, _, err := NewChannel(a, b, 1, Semantics(99), 1024, 2); err == nil {
		t.Fatal("bogus semantics accepted")
	}
	if _, _, err := NewChannel(a, b, 1, Copy, 0, 2); err == nil {
		t.Fatal("zero buffer size accepted")
	}
	if _, _, err := NewChannel(a, b, 1, Copy, 1024, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestChannelRegionRecycling: a long-lived system-allocated channel must
// not grow memory — regions circulate through the cache.
func TestChannelRegionRecycling(t *testing.T) {
	tb, ea, eb := channelPair(t, EmulatedWeakMove, 4096, 2)
	warm := func() {
		if err := ea.Send(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		tb.Run()
		m, ok := eb.Recv()
		if !ok {
			t.Fatal("no delivery")
		}
		if err := m.Release(); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	free := tb.B.Phys.FreeFrames()
	reusedBefore := tb.B.Genie.Stats().RegionsReused
	for i := 0; i < 10; i++ {
		warm()
	}
	if got := tb.B.Phys.FreeFrames(); got != free {
		t.Errorf("receiver frames drifted %d -> %d across a steady channel", free, got)
	}
	if tb.B.Genie.Stats().RegionsReused == reusedBefore {
		t.Error("no region cache reuse on a recycled channel")
	}
}

// TestChannelBidirectionalMixedTraffic hammers both directions at once
// across different semantics per direction is not supported on a single
// channel, so use two channels sharing hosts.
func TestChannelTwoChannelsSameHosts(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux, FramesPerHost: 1024})
	if err != nil {
		t.Fatal(err)
	}
	a := tb.A.Genie.NewProcess()
	b := tb.B.Genie.NewProcess()
	c1a, c1b, err := NewChannel(a, b, 10, EmulatedCopy, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	c2a, c2b, err := NewChannel(a, b, 20, EmulatedShare, 4096, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c1a.Send([]byte(fmt.Sprintf("ch1-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c2a.Send([]byte(fmt.Sprintf("ch2-%d", i))); err != nil {
			t.Fatal(err)
		}
		tb.Run()
		m1, ok := c1b.Recv()
		if !ok {
			t.Fatal("ch1 no delivery")
		}
		m2, ok := c2b.Recv()
		if !ok {
			t.Fatal("ch2 no delivery")
		}
		if string(m1.Data()[:5]) != "ch1-"+fmt.Sprint(i)[:1] || string(m2.Data()[:5]) != "ch2-"+fmt.Sprint(i)[:1] {
			t.Fatalf("cross-channel mixup: %q %q", m1.Data()[:5], m2.Data()[:5])
		}
		if err := m1.Release(); err != nil {
			t.Fatal(err)
		}
		if err := m2.Release(); err != nil {
			t.Fatal(err)
		}
	}
	_ = c2a
}

// TestMessageDoubleRelease checks that a Message is released once: a
// second Release reports ErrMessageReleased and reposts nothing, so the
// receive window and the peer's send credits stay at the window size.
// A second repost would grow both by one per extra Release.
func TestMessageDoubleRelease(t *testing.T) {
	for _, sem := range AllSemantics() {
		t.Run(sem.String(), func(t *testing.T) {
			const window = 2
			tb, ea, eb := channelPair(t, sem, 4096, window)
			if err := ea.Send([]byte("once")); err != nil {
				t.Fatal(err)
			}
			tb.Run()
			m, ok := eb.Recv()
			if !ok {
				t.Fatal("no message delivered")
			}
			if err := m.Release(); err != nil {
				t.Fatal(err)
			}
			if err := m.Release(); !errors.Is(err, ErrMessageReleased) {
				t.Fatalf("second Release = %v, want ErrMessageReleased", err)
			}
			if m.Data() != nil {
				t.Errorf("Data after Release = %d bytes, want nil", len(m.Data()))
			}
			if got := tb.B.Genie.PostedInputs(eb.Port()); got != window {
				t.Errorf("%d inputs posted on the receiver, want %d", got, window)
			}
			if got := tb.B.NIC.PostedInputs(eb.Port()); got != window {
				t.Errorf("%d buffers posted on the receiving adapter, want %d", got, window)
			}
			if got := ea.Credits(); got != window {
				t.Errorf("sender has %d credits, want %d", got, window)
			}
		})
	}
}
