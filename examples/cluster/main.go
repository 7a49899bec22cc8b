// Cluster: supercomputing on a workstation cluster — the third workload
// class the paper's introduction motivates. N workers arranged in a
// ring run an iterative stencil-style computation and exchange boundary
// regions with both neighbors every step over windowed message channels
// with credit-based flow control. The workers live on separate simulated
// hosts joined by a switch fabric, each advancing on its own engine
// shard; -workers spreads the shards over real goroutines, and the
// simulated results are bit-identical at any worker count.
//
// The example compares communication time per step across semantics: in
// a tightly coupled computation, the data passing scheme decides how
// much of each step is lost to the exchange.
//
// Usage:
//
//	go run ./examples/cluster [-n 8] [-steps 25] [-halo 16384] [-workers 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"repro/genie"
)

func main() {
	n := flag.Int("n", 8, "ring size: number of worker hosts")
	steps := flag.Int("steps", 25, "stencil iterations")
	halo := flag.Int("halo", 4*4096, "boundary bytes exchanged per direction per step")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"goroutines advancing engine shards (results identical at any value)")
	flag.Parse()
	if *n < 3 {
		log.Fatalf("ring needs at least 3 workers, got %d", *n)
	}

	fmt.Printf("%d-worker ring halo exchange: %d steps, %d KB per direction per step, %d shard workers\n\n",
		*n, *steps, *halo/1024, *workers)
	fmt.Printf("%-20s %16s %18s\n", "semantics", "per-step us", "total exchange ms")
	fmt.Println("---------------------------------------------------------")
	for _, sem := range []genie.Semantics{
		genie.Copy, genie.EmulatedCopy, genie.EmulatedShare,
		genie.EmulatedMove, genie.EmulatedWeakMove,
	} {
		perStep, err := run(sem, *n, *steps, *halo, *workers)
		if err != nil {
			log.Fatalf("%v: %v", sem, err)
		}
		fmt.Printf("%-20s %16.1f %18.2f\n", sem, perStep, perStep*float64(*steps)/1000)
	}
	fmt.Println("\nwith emulated copy the exchange needs no application changes relative")
	fmt.Println("to the copy-semantics version — only the kernel's buffering changed.")
}

// link is the duplex channel between ring neighbors i and i+1:
// fwd belongs to worker i, rev to worker i+1.
type link struct {
	fwd, rev *genie.Endpoint
}

func run(sem genie.Semantics, n, steps, halo, workers int) (perStepUS float64, err error) {
	c, err := genie.NewCluster(genie.RingTopology(n), workers, genie.WithMemory(2048))
	if err != nil {
		return 0, err
	}
	procs := make([]*genie.Process, n)
	for i := range procs {
		procs[i] = c.Host(i).NewProcess()
	}
	links := make([]link, n)
	for i := 0; i < n; i++ {
		fwd, rev, err := c.Connect(procs[i], procs[(i+1)%n], sem, halo, 2)
		if err != nil {
			return 0, fmt.Errorf("connect %d-%d: %w", i, (i+1)%n, err)
		}
		links[i] = link{fwd: fwd, rev: rev}
	}

	buf := make([]byte, halo)
	start := c.Now()
	for step := 0; step < steps; step++ {
		// Each worker "computes" its interior (stamp the halo with the
		// step and worker number), then sends its boundary both ways
		// around the ring.
		for i, l := range links {
			for j := range buf {
				buf[j] = byte(step + i)
			}
			if err := l.fwd.Send(buf); err != nil {
				return 0, fmt.Errorf("step %d worker %d fwd send: %w", step, i, err)
			}
			for j := range buf {
				buf[j] = byte(step + i + 128)
			}
			if err := l.rev.Send(buf); err != nil {
				return 0, fmt.Errorf("step %d worker %d rev send: %w", step, (i+1)%n, err)
			}
		}
		c.Run()

		for i, l := range links {
			m, ok := l.rev.Recv()
			if !ok {
				return 0, fmt.Errorf("step %d: worker %d missing forward halo", step, (i+1)%n)
			}
			if m.Data()[0] != byte(step+i) {
				return 0, fmt.Errorf("step %d link %d: forward halo data wrong", step, i)
			}
			if err := m.Release(); err != nil {
				return 0, err
			}
			m, ok = l.fwd.Recv()
			if !ok {
				return 0, fmt.Errorf("step %d: worker %d missing reverse halo", step, i)
			}
			if m.Data()[0] != byte(step+i+128) {
				return 0, fmt.Errorf("step %d link %d: reverse halo data wrong", step, i)
			}
			if err := m.Release(); err != nil {
				return 0, err
			}
		}
	}
	total := c.Now().Sub(start).Micros()
	return total / float64(steps), nil
}
