// Semantics tour: a guided walk through the taxonomy's observable
// behaviour — what each dimension of the classification actually means
// to an application. Every claim is demonstrated, not asserted: the
// tour overwrites buffers during output to show integrity (or its
// absence), touches consumed buffers to show move semantics' API, and
// reuses cached regions to show region caching.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/genie"
)

func main() {
	fmt.Println("== 1. Integrity: overwriting the buffer while output is in flight ==")
	integrity(genie.EmulatedCopy)
	integrity(genie.EmulatedShare)

	fmt.Println("\n== 2. Allocation: what happens to the buffer after output ==")
	allocation()

	fmt.Println("\n== 3. Region caching: weak move reuses buffers across I/Os ==")
	caching()
}

func integrity(sem genie.Semantics) {
	net, err := genie.New()
	if err != nil {
		log.Fatal(err)
	}
	tx := net.HostA().NewProcess()
	rx := net.HostB().NewProcess()
	const n = 2 * 4096
	src, _ := tx.Brk(n)
	dst, _ := rx.Brk(n)
	orig := bytes.Repeat([]byte{'o'}, n)
	if err := tx.Write(src, orig); err != nil {
		log.Fatal(err)
	}
	in, err := rx.Input(1, sem, dst, n)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tx.Output(1, sem, src, n); err != nil {
		log.Fatal(err)
	}
	// The "application" overwrites its buffer before the adapter has
	// serialized the frame.
	if err := tx.Write(src, bytes.Repeat([]byte{'X'}, n)); err != nil {
		log.Fatal(err)
	}
	net.Run()
	got := make([]byte, n)
	if err := rx.Read(in.Addr, got); err != nil {
		log.Fatal(err)
	}
	switch {
	case bytes.Equal(got, orig):
		fmt.Printf("%-20s receiver got the ORIGINAL data (strong integrity", sem)
		if sem == genie.EmulatedCopy {
			fmt.Print(": TCOW copied the touched pages")
		}
		fmt.Println(")")
	default:
		fmt.Printf("%-20s receiver saw the OVERWRITE (weak integrity: in-place output)\n", sem)
	}
}

func allocation() {
	net, err := genie.New()
	if err != nil {
		log.Fatal(err)
	}
	tx := net.HostA().NewProcess()
	rx := net.HostB().NewProcess()

	// Application-allocated: the buffer survives output.
	src, _ := tx.Brk(4096)
	dst, _ := rx.Brk(4096)
	if err := tx.Write(src, []byte("keep me")); err != nil {
		log.Fatal(err)
	}
	if _, _, err := net.Transfer(tx, rx, 1, genie.EmulatedCopy, src, dst, 4096); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := tx.Read(src, buf); err == nil {
		fmt.Printf("emulated copy:       sender still reads %q after output (application-allocated)\n", buf)
	}

	// System-allocated: the buffer is consumed by output.
	r, err := tx.AllocIOBuffer(4096)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Write(r.Start(), []byte("gone soon")); err != nil {
		log.Fatal(err)
	}
	_, in, err := net.Transfer(tx, rx, 1, genie.EmulatedMove, r.Start(), genie.NoAddr, 4096)
	if err != nil {
		log.Fatal(err)
	}
	if err := tx.Read(r.Start(), buf); err != nil {
		fmt.Println("emulated move:       sender's buffer faults after output (consumed; region hiding)")
	}
	got := make([]byte, 9)
	if err := rx.Read(in.Addr, got); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("                     receiver found %q in a system-chosen region at %#x\n", got, in.Addr)
}

func caching() {
	net, err := genie.New()
	if err != nil {
		log.Fatal(err)
	}
	tx := net.HostA().NewProcess()
	rx := net.HostB().NewProcess()

	send := func(tag byte) *genie.InputOp {
		r, err := tx.AllocIOBuffer(4096)
		if err != nil {
			log.Fatal(err)
		}
		if err := tx.Write(r.Start(), bytes.Repeat([]byte{tag}, 4096)); err != nil {
			log.Fatal(err)
		}
		_, in, err := net.Transfer(tx, rx, 1, genie.EmulatedWeakMove, r.Start(), genie.NoAddr, 4096)
		if err != nil {
			log.Fatal(err)
		}
		return in
	}
	first := send('1')
	// The receiver recycles the buffer (an application with balanced
	// input and output would output it instead).
	if err := rx.RecycleIOBuffer(first.Region, true); err != nil {
		log.Fatal(err)
	}
	second := send('2')
	if second.Region == first.Region {
		fmt.Printf("second input landed in the SAME cached region (%#x): no allocation, no mapping\n",
			second.Addr)
	}
	fmt.Printf("region cache hits on receiver: %d\n", net.HostB().Stats().RegionsReused)
}
