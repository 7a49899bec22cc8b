package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// runTraceCmd traces one datagram transfer and prints every emitted
// event, then the critical-path breakdown whose spans sum to the
// end-to-end latency.
func runTraceCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("geniebench trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	semName := fs.String("sem", "emulated copy", "buffering semantics")
	length := fs.Int("bytes", 61440, "datagram length in bytes")
	scheme := fs.String("scheme", "early", "input buffering: early, pooled, outboard")
	devOff := fs.Int("devoff", 0, "device payload placement offset")
	appOff := fs.Int("appoff", 0, "application buffer page offset")
	chromePath := fs.String("chrome", "", "also write the trace as Chrome trace_event JSON to this path")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the error and usage
	}
	sems, err := parseSemanticsList(*semName)
	if err != nil {
		return usageErrf(fs, stderr, "-sem: %v", err)
	}
	if len(sems) != 1 {
		return usageErrf(fs, stderr, "-sem: want exactly one semantics, got %q", *semName)
	}
	sem := sems[0]
	var buffering netsim.InputBuffering
	switch *scheme {
	case "early":
		buffering = netsim.EarlyDemux
	case "pooled":
		buffering = netsim.Pooled
	case "outboard":
		buffering = netsim.OutboardBuffering
	default:
		return usageErrf(fs, stderr, "-scheme: unknown scheme %q (early, pooled, outboard)", *scheme)
	}
	if *length < 1 || *length > netsim.MaxFrame {
		return usageErrf(fs, stderr, "-bytes must be in [1, %d], got %d", netsim.MaxFrame, *length)
	}
	if *devOff < 0 {
		return usageErrf(fs, stderr, "-devoff must not be negative, got %d", *devOff)
	}
	if *appOff < 0 {
		return usageErrf(fs, stderr, "-appoff must not be negative, got %d", *appOff)
	}

	ring := trace.NewRing(1 << 16)
	var sink trace.Sink = ring
	var chrome *trace.ChromeExporter
	if *chromePath != "" {
		chrome = trace.NewChromeExporter()
		chrome.SetProcess(1, fmt.Sprintf("%v %dB %v", sem, *length, buffering))
		sink = trace.Multi(ring, chrome)
	}
	s := experiments.Setup{
		Scheme:    buffering,
		DevOff:    *devOff,
		AppOffset: *appOff,
		Tracer:    trace.New(sink),
	}
	m, err := experiments.Measure(s, sem, *length)
	if err != nil {
		return failf(stderr, err)
	}
	if ring.Dropped() > 0 {
		fmt.Fprintf(stderr, "geniebench: ring overflowed, %d oldest events dropped\n", ring.Dropped())
	}
	events := ring.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	fmt.Fprintf(stdout, "transfer: %v, %d bytes, %v buffering (%d events)\n\n",
		sem, *length, buffering, len(events))
	fmt.Fprintf(stdout, "%10s %-6s %-4s %-10s %-40s %9s %12s\n",
		"at us", "host", "cat", "stage", "event", "bytes", "latency us")
	const rule = "-------------------------------------------------------------------------------------------------"
	fmt.Fprintln(stdout, rule)
	var opTotal float64
	for _, ev := range events {
		switch ev.Phase {
		case trace.Begin, trace.End:
			// Operation boundaries are summarized below.
			continue
		}
		if stageSummary[ev.Name] {
			// Stage-level spans aggregate the charges already listed;
			// they appear in the critical path section instead.
			continue
		}
		lat := "-"
		if ev.Phase == trace.Complete {
			lat = fmt.Sprintf("%.2f", ev.Dur.Micros())
			if ev.Cat == trace.CatOp {
				opTotal += ev.Dur.Micros()
			}
		}
		fmt.Fprintf(stdout, "%10.1f %-6s %-4s %-10s %-40s %9d %12s\n",
			float64(ev.At), ev.Host, ev.Cat, ev.Stage, ev.Name, ev.Bytes, lat)
	}
	fmt.Fprintln(stdout, rule)

	// The critical path: the spans that serialize end to end. Their
	// durations tile the interval between output start and input
	// completion exactly.
	critical := []string{"output.prepare", "net.tx", "net.deliver", "input.dispose"}
	var pathTotal float64
	fmt.Fprintln(stdout, "\ncritical path:")
	for _, name := range critical {
		for _, ev := range events {
			if ev.Phase == trace.Complete && ev.Name == name {
				fmt.Fprintf(stdout, "  %-16s %12.2f us  (%s)\n", name, ev.Dur.Micros(), ev.Host)
				pathTotal += ev.Dur.Micros()
				break
			}
		}
	}
	fmt.Fprintf(stdout, "  %-16s %12.2f us\n", "sum", pathTotal)

	fmt.Fprintf(stdout, "\ntotal data passing CPU time          %12.2f us (both hosts, all stages)\n", opTotal)
	fmt.Fprintf(stdout, "end-to-end latency                   %12.2f us\n", m.LatencyUS)
	fmt.Fprintf(stdout, "equivalent throughput                %12.2f Mbps\n", m.ThroughputMbps())
	fmt.Fprintf(stdout, "receiver CPU busy                    %12.2f us (%.1f%% utilization)\n",
		m.RxCPUUS, m.Utilization()*100)
	fmt.Fprintf(stdout, "sender CPU busy                      %12.2f us\n", m.TxCPUUS)

	if chrome != nil {
		if err := writeChrome(*chromePath, chrome); err != nil {
			return failf(stderr, err)
		}
		fmt.Fprintf(stderr, "geniebench: wrote %s (load in chrome://tracing or Perfetto)\n", *chromePath)
	}
	return 0
}

// stageSummary marks the per-stage aggregate spans, which duplicate the
// individual charges in the table and belong to the critical path view.
var stageSummary = map[string]bool{
	"output.prepare": true,
	"output.dispose": true,
	"input.dispose":  true,
}

// writeChrome writes exp as Chrome trace_event JSON to path. The file
// is closed on every path; a failed write or close is the error.
func writeChrome(path string, exp *trace.ChromeExporter) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = exp.WriteTo(f)
	return err
}
