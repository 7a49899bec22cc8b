package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
)

// Chaos harness: runs reliable transfers across the paper's buffering
// schemes and semantics under a seeded fault script and asserts, after
// every point, that (a) every message was recovered — delivered exactly
// once with intact bytes despite injected drops, duplicates,
// reorderings, corruptions, allocation failures, and pool denials —
// and (b) the testbed conserved its resources: no leaked frames, pools
// back to full, the event queue drained. Violations are collected into
// a report instead of aborting, so one run characterizes the whole
// configuration space; determinism means a reported violation replays
// exactly under the same spec.

// ChaosConfig configures one chaos run. Zero-value fields take
// defaults; Spec must be a non-zero fault specification.
type ChaosConfig struct {
	// Spec is the seeded fault script applied to every point.
	Spec faults.Spec
	// Schemes are the receiver buffering architectures to cover
	// (default: early-demux, pooled, outboard).
	Schemes []netsim.InputBuffering
	// Semantics are the buffering semantics to cover (default: copy,
	// emulated copy, emulated share, emulated weak move — one per
	// allocation/integrity family).
	Semantics []core.Semantics
	// Lengths are the message payload sizes (default: 512 and 4096).
	Lengths []int
	// Messages per point (default 3). Kept above Window so points also
	// exercise receiver-window overrun recovery.
	Messages int
	// Window is the reliable channel's preposted receive window
	// (default 2).
	Window int
	// Reliable overrides retransmit tunables (zero value: defaults).
	Reliable core.ReliableConfig
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if len(c.Schemes) == 0 {
		c.Schemes = []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering}
	}
	if len(c.Semantics) == 0 {
		c.Semantics = []core.Semantics{core.Copy, core.EmulatedCopy, core.EmulatedShare, core.EmulatedWeakMove}
	}
	if len(c.Lengths) == 0 {
		c.Lengths = []int{512, 4096}
	}
	if c.Messages == 0 {
		c.Messages = 3
	}
	if c.Window == 0 {
		c.Window = 2
	}
	return c
}

// ChaosViolation is one failed recovery or conservation check.
type ChaosViolation struct {
	Point  string // "scheme/semantics/lengthB"
	Detail string
}

func (v ChaosViolation) String() string { return v.Point + ": " + v.Detail }

// ChaosPoint summarizes one (scheme, semantics, length) run.
type ChaosPoint struct {
	Scheme   netsim.InputBuffering
	Sem      core.Semantics
	Length   int
	Faults   faults.Stats       // injector decisions that fired during the point
	Sender   core.ReliableStats // recovery work on the sending end
	Receiver core.ReliableStats
}

// Name labels the point in reports and violations.
func (p ChaosPoint) Name() string {
	return fmt.Sprintf("%s/%s/%dB", p.Scheme, p.Sem, p.Length)
}

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	Spec       faults.Spec
	Points     []ChaosPoint
	Violations []ChaosViolation
}

// OK reports whether every point recovered and conserved resources.
func (r *ChaosReport) OK() bool { return len(r.Violations) == 0 }

// TotalFaults sums the injector decisions fired across all points.
func (r *ChaosReport) TotalFaults() faults.Stats {
	var t faults.Stats
	for _, p := range r.Points {
		t.Drops += p.Faults.Drops
		t.Duplicates += p.Faults.Duplicates
		t.Reorders += p.Faults.Reorders
		t.Corruptions += p.Faults.Corruptions
		t.AllocFailures += p.Faults.AllocFailures
		t.PoolDenials += p.Faults.PoolDenials
	}
	return t
}

// TotalRetransmits sums the timeout-driven re-sends across all points.
func (r *ChaosReport) TotalRetransmits() uint64 {
	var t uint64
	for _, p := range r.Points {
		t += p.Sender.Retransmits + p.Receiver.Retransmits
	}
	return t
}

// String renders a human-readable summary.
func (r *ChaosReport) String() string {
	var b strings.Builder
	f := r.TotalFaults()
	fmt.Fprintf(&b, "chaos %s: %d points, faults fired: %d drop / %d dup / %d reorder / %d corrupt / %d allocfail / %d pooldeny, %d retransmits\n",
		r.Spec, len(r.Points), f.Drops, f.Duplicates, f.Reorders, f.Corruptions, f.AllocFailures, f.PoolDenials, r.TotalRetransmits())
	if r.OK() {
		b.WriteString("all points recovered; conservation invariants held\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violations:\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// RunChaos executes the chaos matrix. A returned error means the
// harness itself could not run a point (setup failure with injection
// disarmed — a bug, not an injected fault); recovery and conservation
// failures land in the report's Violations instead.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	if !cfg.Spec.Enabled() {
		return nil, errors.New("experiments: chaos run needs a non-zero fault spec")
	}
	rep := &ChaosReport{Spec: cfg.Spec}
	for _, scheme := range cfg.Schemes {
		tb, err := core.NewTestbed(core.TestbedConfig{
			Buffering:     scheme,
			FramesPerHost: 1024,
			Faults:        cfg.Spec,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos testbed (%s): %w", scheme, err)
		}
		// Conservation baseline: free frame counts of the untouched
		// testbed (pools have already taken their pages).
		baseFree := [2]int{tb.A.Phys.FreeFrames(), tb.B.Phys.FreeFrames()}
		for _, sem := range cfg.Semantics {
			for _, length := range cfg.Lengths {
				pt, violations, err := runChaosPoint(tb, cfg, scheme, sem, length, baseFree)
				if err != nil {
					return nil, err
				}
				rep.Points = append(rep.Points, pt)
				rep.Violations = append(rep.Violations, violations...)
			}
		}
	}
	return rep, nil
}

// chaosPayload is the deterministic test payload for message i.
func chaosPayload(i, length int) []byte {
	p := make([]byte, length)
	for j := range p {
		p[j] = byte(i*37 + j)
	}
	return p
}

// runChaosPoint runs one point on the shared per-scheme testbed and
// Resets it afterwards (rewinding the injector, so every point replays
// the same seeded fault script — per-point reproducibility).
func runChaosPoint(tb *core.Testbed, cfg ChaosConfig, scheme netsim.InputBuffering, sem core.Semantics, length int, baseFree [2]int) (ChaosPoint, []ChaosViolation, error) {
	pt := ChaosPoint{Scheme: scheme, Sem: sem, Length: length}
	fail := func(format string, args ...any) (ChaosPoint, []ChaosViolation, error) {
		return pt, nil, fmt.Errorf("experiments: chaos %s: %w", pt.Name(), fmt.Errorf(format, args...))
	}

	// Setup runs with injection disarmed: faults belong to the measured
	// run, not to channel construction.
	inj := tb.Injector()
	inj.Disarm()
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	ra, rb, err := core.NewReliableChannel(sender, receiver, 300, sem, length, cfg.Window, cfg.Reliable)
	if err != nil {
		return fail("channel: %v", err)
	}
	type rx struct {
		count int
		data  []byte
	}
	delivered := make(map[uint32]*rx)
	rb.OnDeliver(func(seq uint32, payload []byte) {
		if g := delivered[seq]; g != nil {
			g.count++
			return
		}
		// The payload is borrowed for the upcall; keep a copy.
		delivered[seq] = &rx{count: 1, data: append([]byte(nil), payload...)}
	})

	sent := make(map[uint32][]byte, cfg.Messages)
	inj.Arm()
	for i := 0; i < cfg.Messages; i++ {
		payload := chaosPayload(i, length)
		seq, err := ra.Send(payload)
		if err != nil {
			return fail("send %d: %v", i, err)
		}
		sent[seq] = payload
	}
	tb.Run()
	inj.Disarm()
	pt.Faults = inj.Stats()
	pt.Sender = ra.Stats()
	pt.Receiver = rb.Stats()

	// Recovery checks: exactly-once, intact delivery of every message.
	var violations []ChaosViolation
	violate := func(format string, args ...any) {
		violations = append(violations, ChaosViolation{Point: pt.Name(), Detail: fmt.Sprintf(format, args...)})
	}
	for seq, want := range sent {
		g := delivered[seq]
		switch {
		case g == nil:
			violate("seq %d never delivered", seq)
		case g.count != 1:
			violate("seq %d delivered %d times", seq, g.count)
		case !bytes.Equal(g.data, want):
			violate("seq %d payload corrupted (%d bytes, want %d)", seq, len(g.data), len(want))
		}
	}
	if len(delivered) > len(sent) {
		violate("delivered %d distinct messages, sent %d", len(delivered), len(sent))
	}
	if pt.Sender.GaveUp != 0 || ra.Outstanding() != 0 {
		violate("sender gave up on %d frames, %d still outstanding", pt.Sender.GaveUp, ra.Outstanding())
	}
	if pt.Receiver.GaveUp != 0 {
		violate("receiver gave up on %d ack-bearing frames", pt.Receiver.GaveUp)
	}

	// Teardown, then conservation invariants: everything the point
	// borrowed must be back where it started.
	ra.Close()
	rb.Close()
	sender.Exit()
	receiver.Exit()
	tb.Run() // drain anything teardown unblocked

	if n := tb.Eng.Pending(); n != 0 {
		violate("engine queue not drained: %d events pending", n)
	}
	for i, h := range []*core.Host{tb.A, tb.B} {
		if p := h.NIC.Pool(); p != nil {
			if p.Free() != p.Total() {
				violate("%s overlay pool leaked: %d/%d free", h.Name, p.Free(), p.Total())
			}
			if n := p.Underflows(); n != 0 {
				violate("%s overlay pool gauge underflowed %d times (double release?)", h.Name, n)
			}
		}
		if o := h.NIC.Outboard(); o != nil {
			if o.Free() != o.Capacity() {
				violate("%s outboard leaked: %d/%d bytes free", h.Name, o.Free(), o.Capacity())
			}
			if n := o.Underflows(); n != 0 {
				violate("%s outboard gauge underflowed %d times (double free?)", h.Name, n)
			}
		}
		if kp := h.Genie.KernelPool(); kp.Free() != kp.Total() {
			violate("%s kernel pool leaked: %d/%d free", h.Name, kp.Free(), kp.Total())
		}
		if n := h.Genie.KernelPool().Underflows(); n != 0 {
			violate("%s kernel pool gauge underflowed %d times", h.Name, n)
		}
		if got := h.Phys.FreeFrames(); got != baseFree[i] {
			violate("%s leaked frames: %d free, baseline %d", h.Name, got, baseFree[i])
		}
		if err := h.Phys.CheckInvariants(); err != nil {
			violate("%s physical memory invariants: %v", h.Name, err)
		}
		st := h.NIC.Stats()
		if st.RxFrames != st.Delivered+st.Dropped {
			violate("%s frame accounting: rx %d != delivered %d + dropped %d", h.Name, st.RxFrames, st.Delivered, st.Dropped)
		}
	}
	// Wire conservation (single-frame mode): every transmitted frame,
	// adjusted for injected wire loss and duplication, arrived at the
	// peer.
	sa, sb := tb.A.NIC.Stats(), tb.B.NIC.Stats()
	if got := sa.TxFrames - sa.WireDrops + sa.WireDups; got != sb.RxFrames {
		violate("wire A->B: %d frames should arrive, B received %d", got, sb.RxFrames)
	}
	if got := sb.TxFrames - sb.WireDrops + sb.WireDups; got != sa.RxFrames {
		violate("wire B->A: %d frames should arrive, A received %d", got, sa.RxFrames)
	}

	if err := tb.Reset(); err != nil {
		return fail("reset: %v", err)
	}
	return pt, violations, nil
}
