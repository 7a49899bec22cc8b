package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// ThroughputResult is the outcome of a sustained streaming run: the
// paper reports single-datagram equivalent throughputs; this extension
// measures what a pipelined sender/receiver pair actually sustains, and
// which resource saturates first.
type ThroughputResult struct {
	Sem        core.Semantics
	Bytes      int
	Count      int
	Mbps       float64
	WireUS     float64 // per-datagram wire occupancy
	SenderUS   float64 // per-datagram sender prepare time (departure spacing)
	ReceiverUS float64 // per-datagram receiver CPU busy time
	Bottleneck string  // "wire", "sender CPU", or "receiver CPU"
}

// Throughput streams count datagrams of the given size: the sender
// issues each output as soon as the previous prepare completes, the
// receiver preposts every input, and the sustained rate is computed from
// the steady-state completion spacing.
func Throughput(s Setup, sem core.Semantics, bytes, count int) (ThroughputResult, error) {
	if count < 3 {
		return ThroughputResult{}, fmt.Errorf("experiments: Throughput needs count >= 3")
	}
	model := s.model()
	ps := model.Platform.PageSize
	pagesPer := bytes/ps + 2

	genieCfg := s.Genie
	if genieCfg == (core.Config{}) {
		genieCfg = core.DefaultConfig()
	}
	genieCfg.KernelPoolPages = (count + 2) * pagesPer
	cfg := measureTestbedConfig(s)
	cfg.FramesPerHost = (count + 8) * pagesPer * 3
	cfg.PoolPages = (count + 2) * pagesPer
	cfg.Genie = genieCfg
	tb, err := newTestbed(s, cfg)
	if err != nil {
		return ThroughputResult{}, err
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()

	// Source buffers: one shared heap buffer for application-allocated
	// semantics (overlapping outputs just stack references), one region
	// per datagram for the system-allocated family.
	var srcs []vm.Addr
	if sem.SystemAllocated() {
		for i := 0; i < count; i++ {
			r, err := sender.AllocIOBuffer(bytes)
			if err != nil {
				return ThroughputResult{}, err
			}
			if err := sender.Write(r.Start(), make([]byte, bytes)); err != nil {
				return ThroughputResult{}, err
			}
			srcs = append(srcs, r.Start())
		}
	} else {
		base, err := sender.Brk(bytes + 2*ps)
		if err != nil {
			return ThroughputResult{}, err
		}
		if err := sender.Write(base, make([]byte, bytes)); err != nil {
			return ThroughputResult{}, err
		}
		for i := 0; i < count; i++ {
			srcs = append(srcs, base)
		}
	}
	var dst vm.Addr
	if !sem.SystemAllocated() {
		base, err := receiver.Brk(bytes + 2*ps)
		if err != nil {
			return ThroughputResult{}, err
		}
		dst = base + vm.Addr(s.AppOffset%ps)
	}

	// Prepost every input; track completions.
	var completions []float64
	for i := 0; i < count; i++ {
		in, err := receiver.Input(1, sem, dst, bytes)
		if err != nil {
			return ThroughputResult{}, fmt.Errorf("input %d: %w", i, err)
		}
		in.OnComplete(func(in *core.InputOp) {
			completions = append(completions, float64(in.CompletedAt))
		})
	}

	// Pipelined sender: the application loop issues the next output as
	// soon as control returns from the previous one.
	var senderSpacing float64
	var issue func(i int)
	var issueErr error
	issue = func(i int) {
		if i >= count || issueErr != nil {
			return
		}
		out, err := sender.Output(1, sem, srcs[i], bytes)
		if err != nil {
			issueErr = fmt.Errorf("output %d: %w", i, err)
			return
		}
		senderSpacing = out.PreparedAt.Sub(out.StartedAt).Micros()
		tb.Eng.ScheduleAt(out.PreparedAt, func() { issue(i + 1) })
	}
	issue(0)
	tb.Run()
	if issueErr != nil {
		return ThroughputResult{}, issueErr
	}
	if len(completions) != count {
		return ThroughputResult{}, fmt.Errorf("completed %d of %d datagrams", len(completions), count)
	}

	// Steady-state rate from the completion spacing after the pipeline
	// fills (skip the first completion).
	span := completions[count-1] - completions[0]
	rate := float64((count-1)*bytes) * 8 / span

	res := ThroughputResult{
		Sem: sem, Bytes: bytes, Count: count, Mbps: rate,
		WireUS:   model.BasePerByte * float64(bytes),
		SenderUS: senderSpacing,
	}
	// Receiver busy time per datagram in steady state: total spacing is
	// max(wire, sender, receiver busy); recover receiver busy from the
	// per-datagram CPU accounting of the last input.
	res.ReceiverUS = span / float64(count-1) // observed spacing
	switch {
	case almostEq(res.ReceiverUS, res.WireUS, 1) && res.WireUS >= res.SenderUS:
		res.Bottleneck = "wire"
	case res.SenderUS >= res.WireUS && almostEq(res.ReceiverUS, res.SenderUS, 1):
		res.Bottleneck = "sender CPU"
	default:
		res.Bottleneck = "receiver CPU"
	}
	return res, nil
}

func almostEq(a, b, tol float64) bool {
	d := a - b
	return d <= tol && d >= -tol
}

// TableThroughput reports the sustained streaming throughput of every
// semantics at the given link rate — an extension beyond the paper's
// single-datagram equivalents that shows where copy semantics stops
// being able to fill the pipe.
func TableThroughput(s Setup, r Runner, net cost.Network) (Table, error) {
	s = s.env()
	s.Model = cost.NewModel(cost.MicronP166, net)
	s.Scheme = netsim.EarlyDemux
	t := Table{
		ID:     fmt.Sprintf("Throughput (%s)", net.Name),
		Title:  fmt.Sprintf("Sustained streaming throughput, 60 KB datagrams at %.0f Mbps", net.RateMbps),
		Header: []string{"semantics", "sustained Mbps", "wire us", "sender us", "spacing us", "bottleneck"},
	}
	sems := core.AllSemantics()
	rows := make([][]string, len(sems))
	err := r.ForEach(len(sems), func(i int) error {
		sem := sems[i]
		res, err := Throughput(s, sem, 61440, 16)
		if err != nil {
			return fmt.Errorf("%v: %w", sem, err)
		}
		rows[i] = []string{
			sem.String(),
			fmt.Sprintf("%.0f", res.Mbps),
			fmt.Sprintf("%.0f", res.WireUS),
			fmt.Sprintf("%.0f", res.SenderUS),
			fmt.Sprintf("%.0f", res.ReceiverUS),
			res.Bottleneck,
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}
