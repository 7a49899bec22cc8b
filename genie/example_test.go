package genie_test

import (
	"fmt"
	"log"

	"repro/genie"
)

// Example reproduces the README quickstart: one emulated-copy transfer
// between two simulated hosts. The simulated clock is deterministic, so
// the latency prints exactly.
func Example() {
	net, err := genie.New()
	if err != nil {
		log.Fatal(err)
	}
	sender := net.HostA().NewProcess()
	receiver := net.HostB().NewProcess()

	payload := []byte("hello, Genie")
	src, _ := sender.Brk(8192)
	if err := sender.Write(src, payload); err != nil {
		log.Fatal(err)
	}
	dst, _ := receiver.Brk(8192)

	out, in, err := net.Transfer(sender, receiver, 1, genie.EmulatedCopy, src, dst, len(payload))
	if err != nil {
		log.Fatal(err)
	}
	got := make([]byte, in.N)
	if err := receiver.Read(in.Addr, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s in %.1f simulated us\n", got, in.CompletedAt.Sub(out.StartedAt).Micros())
	// Output: hello, Genie in 146.0 simulated us
}

// ExampleNetwork_NewChannel shows the windowed message channel with
// credit-based flow control.
func ExampleNetwork_NewChannel() {
	net, err := genie.New()
	if err != nil {
		log.Fatal(err)
	}
	a := net.HostA().NewProcess()
	b := net.HostB().NewProcess()
	ea, eb, err := net.NewChannel(a, b, 10, genie.EmulatedShare, 4096, 2)
	if err != nil {
		log.Fatal(err)
	}
	if err := ea.Send([]byte("ping")); err != nil {
		log.Fatal(err)
	}
	net.Run()
	if m, ok := eb.Recv(); ok {
		fmt.Printf("%s (credits left: %d)\n", m.Data()[:4], ea.Credits())
		if err := m.Release(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("credits after release: %d\n", ea.Credits())
	// Output:
	// ping (credits left: 1)
	// credits after release: 2
}

// ExampleSemantics shows the taxonomy dimensions.
func ExampleSemantics() {
	for _, sem := range []genie.Semantics{genie.Copy, genie.EmulatedMove, genie.Share} {
		fmt.Printf("%s: system-allocated=%t weak-integrity=%t emulated=%t\n",
			sem, sem.SystemAllocated(), sem.WeakIntegrity(), sem.Emulated())
	}
	// Output:
	// copy: system-allocated=false weak-integrity=false emulated=false
	// emulated move: system-allocated=true weak-integrity=false emulated=true
	// share: system-allocated=false weak-integrity=true emulated=false
}

// ExampleAllSemantics walks the taxonomy in order: each of the eight
// semantics is one constant an application passes to Input, Output,
// Transfer or NewChannel.
func ExampleAllSemantics() {
	named := []genie.Semantics{
		genie.Copy, genie.EmulatedCopy, genie.Share, genie.EmulatedShare,
		genie.Move, genie.EmulatedMove, genie.WeakMove, genie.EmulatedWeakMove,
	}
	for i, sem := range genie.AllSemantics() {
		if sem != named[i] {
			log.Fatalf("AllSemantics()[%d] = %v, want %v", i, sem, named[i])
		}
		fmt.Printf("%-18s system-allocated=%-5t weak-integrity=%t\n",
			sem, sem.SystemAllocated(), sem.WeakIntegrity())
	}
	// Output:
	// copy               system-allocated=false weak-integrity=false
	// emulated copy      system-allocated=false weak-integrity=false
	// share              system-allocated=false weak-integrity=true
	// emulated share     system-allocated=false weak-integrity=true
	// move               system-allocated=true  weak-integrity=false
	// emulated move      system-allocated=true  weak-integrity=false
	// weak move          system-allocated=true  weak-integrity=true
	// emulated weak move system-allocated=true  weak-integrity=true
}
