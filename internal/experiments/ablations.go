package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// This file holds ablation experiments for the design choices DESIGN.md
// calls out: each isolates one Genie mechanism and quantifies what it
// buys, beyond the paper's own figures.

// AblationWiring quantifies what input-disabled pageout buys: the
// emulated semantics differ from their basic counterparts exactly by the
// wire/unwire costs (the paper cites ~35 us for the first page).
func AblationWiring(s Setup, r Runner) (Table, error) {
	s = s.env()
	s.Scheme = netsim.EarlyDemux
	t := Table{
		ID:     "Ablation: wiring vs input-disabled pageout",
		Title:  "Latency saved by replacing region wiring with input-disabled pageout",
		Header: []string{"pair", "bytes", "wired us", "unwired us", "saved us"},
	}
	pairs := [][2]core.Semantics{
		{core.Share, core.EmulatedShare},
		{core.WeakMove, core.EmulatedWeakMove},
	}
	lengths := []int{4096, 61440}
	var probes []Probe
	for _, pair := range pairs {
		for _, b := range lengths {
			probes = append(probes, Probe{s, pair[0], b}, Probe{s, pair[1], b})
		}
	}
	ms, err := r.MeasureAll(probes)
	if err != nil {
		return Table{}, err
	}
	for i := 0; i < len(ms); i += 2 {
		mw, mu := ms[i], ms[i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%v -> %v", probes[i].Sem, probes[i+1].Sem),
			fmt.Sprint(mw.Bytes),
			fmt.Sprintf("%.0f", mw.LatencyUS),
			fmt.Sprintf("%.0f", mu.LatencyUS),
			fmt.Sprintf("%.0f", mw.LatencyUS-mu.LatencyUS),
		})
	}
	return t, nil
}

// AblationAlignment turns system input alignment off (the traditional
// practice of allocating system buffers without regard to application
// buffer alignment) and shows emulated copy degrading to copyout.
func AblationAlignment(s Setup, r Runner) (Table, error) {
	t := Table{
		ID:     "Ablation: system input alignment",
		Title:  "Emulated copy input with and without system input alignment (early demux, unaligned app buffer)",
		Header: []string{"bytes", "aligned us", "no-alignment us", "penalty us"},
	}
	// App buffer at page offset 1000: only system alignment makes
	// swapping possible.
	on := s.env()
	on.Scheme, on.AppOffset, on.Genie = netsim.EarlyDemux, 1000, core.DefaultConfig()
	off := on
	off.Genie.SystemAlignment = false
	var probes []Probe
	for _, b := range []int{8192, 24576, 61440} {
		probes = append(probes, Probe{on, core.EmulatedCopy, b}, Probe{off, core.EmulatedCopy, b})
	}
	ms, err := r.MeasureAll(probes)
	if err != nil {
		return Table{}, err
	}
	for i := 0; i < len(ms); i += 2 {
		mOn, mOff := ms[i], ms[i+1]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(mOn.Bytes),
			fmt.Sprintf("%.0f", mOn.LatencyUS),
			fmt.Sprintf("%.0f", mOff.LatencyUS),
			fmt.Sprintf("%.0f", mOff.LatencyUS-mOn.LatencyUS),
		})
	}
	return t, nil
}

// AblationThresholds sweeps the emulated-copy output conversion
// threshold and shows why converting short outputs to copy semantics
// wins: below ~1.5 KB, copyin is cheaper than TCOW protection plus the
// receive-side copyout of a short fill.
func AblationThresholds(s Setup, r Runner) (Table, error) {
	t := Table{
		ID:     "Ablation: output conversion threshold",
		Title:  "Emulated copy latency under different copy-conversion thresholds",
		Header: []string{"bytes", "threshold 0 us", "threshold 1666 us (paper)", "threshold 4096 us"},
	}
	mk := func(threshold int) core.Config {
		c := core.DefaultConfig()
		c.EmCopyOutputThreshold = threshold
		return c
	}
	rows, err := thresholdRows(s, r, []int{256, 1024, 1536, 2048, 4096}, []int{0, 1666, 4096}, mk)
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// thresholdRows measures emulated copy across a lengths × thresholds
// grid, one probe per grid cell, and assembles one row per length.
func thresholdRows(s Setup, r Runner, lengths, thresholds []int, mk func(threshold int) core.Config) ([][]string, error) {
	s = s.env()
	s.Scheme = netsim.EarlyDemux
	var probes []Probe
	for _, b := range lengths {
		for _, th := range thresholds {
			s.Genie = mk(th)
			probes = append(probes, Probe{s, core.EmulatedCopy, b})
		}
	}
	ms, err := r.MeasureAll(probes)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(lengths))
	for li, b := range lengths {
		row := []string{fmt.Sprint(b)}
		for _, m := range ms[li*len(thresholds) : (li+1)*len(thresholds)] {
			row = append(row, fmt.Sprintf("%.0f", m.LatencyUS))
		}
		rows[li] = row
	}
	return rows, nil
}

// AblationReverseCopyout sweeps the reverse copyout threshold: set to a
// full page ("never"), partial fills are always copied; set to zero
// ("always"), even tiny fills pay a page completion plus swap.
func AblationReverseCopyout(s Setup, r Runner) (Table, error) {
	t := Table{
		ID:     "Ablation: reverse copyout threshold",
		Title:  "Emulated copy latency for partial-page fills under different reverse-copyout thresholds",
		Header: []string{"bytes", "always us", "paper 2178 us", "never us"},
	}
	mk := func(threshold int) core.Config {
		c := core.DefaultConfig()
		c.ReverseCopyoutThreshold = threshold
		return c
	}
	rows, err := thresholdRows(s, r, []int{1800, 2048, 2500, 3000, 3800}, []int{1, 2178, 4097}, mk)
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// AblationOutputProtection compares the output copy-avoidance schemes on
// an application that overwrites its buffer while output is pending:
// copy semantics pays a copy always; TCOW pays one only on conflict and
// never stalls; share pays nothing and corrupts the output.
func AblationOutputProtection(s Setup, r Runner) (Table, error) {
	s = s.env()
	s.Scheme = netsim.EarlyDemux
	t := Table{
		ID:     "Ablation: output protection schemes",
		Title:  "Overwrite-during-output behaviour across output schemes (4 pages)",
		Header: []string{"scheme", "latency us", "copies", "output intact"},
	}
	const length = 4 * 4096
	sems := []core.Semantics{core.Copy, core.EmulatedCopy, core.EmulatedShare}
	rows := make([][]string, len(sems))
	err := r.ForEach(len(sems), func(i int) error {
		sem := sems[i]
		tb, err := newTestbed(s, measureTestbedConfig(s))
		if err != nil {
			return err
		}
		sender := tb.A.Genie.NewProcess()
		receiver := tb.B.Genie.NewProcess()
		srcVA, err := sender.Brk(length)
		if err != nil {
			return err
		}
		dstVA, err := receiver.Brk(length)
		if err != nil {
			return err
		}
		orig := bytes.Repeat([]byte{0x5C}, length)
		if err := sender.Write(srcVA, orig); err != nil {
			return err
		}
		in, err := receiver.Input(1, sem, dstVA, length)
		if err != nil {
			return err
		}
		out, err := sender.Output(1, sem, srcVA, length)
		if err != nil {
			return err
		}
		// The application overwrites every page while output is pending.
		if err := sender.Write(srcVA, bytes.Repeat([]byte{0xE1}, length)); err != nil {
			return err
		}
		tb.Run()
		if out.Err != nil || in.Err != nil {
			return fmt.Errorf("ablation transfer failed: %v %v", out.Err, in.Err)
		}
		got := make([]byte, length)
		if err := receiver.Read(in.Addr, got); err != nil {
			return err
		}
		intact := bytes.Equal(got, orig)
		copies := tb.A.Sys.Stats().TCOWCopies
		if sem == core.Copy {
			copies = 1 // the eager copyin
		}
		rows[i] = []string{
			sem.String(),
			fmt.Sprintf("%.0f", in.CompletedAt.Sub(out.StartedAt).Micros()),
			fmt.Sprint(copies),
			fmt.Sprint(intact),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// AblationChecksum reproduces the Section 9 cost-and-semantics argument
// about integrating the checksum with data movement: with a system
// buffer involved, passing data by VM manipulation and then reading it
// for checksumming beats a combined read-and-write pass — and only the
// separate pass preserves copy semantics on verification failure.
func AblationChecksum(s Setup, r Runner) (Table, error) {
	t := Table{
		ID:     "Ablation: checksum integration",
		Title:  "Checksummed input strategies at 60 KB (early demultiplexing)",
		Header: []string{"strategy", "latency us", "buffer intact on bad checksum"},
	}
	const n = 15 * 4096
	run := func(mode core.ChecksumMode, sem core.Semantics) (float64, bool, error) {
		cs := s.env()
		cs.Scheme, cs.Genie = netsim.EarlyDemux, core.DefaultConfig()
		cs.Genie.Checksum = mode
		// Good-path latency.
		m, err := r.measureOne(cs, sem, n)
		if err != nil {
			return 0, false, err
		}
		// Failure-path behaviour: corrupt a frame and check the buffer.
		tb, err := newTestbed(cs, measureTestbedConfig(cs))
		if err != nil {
			return 0, false, err
		}
		tx := tb.A.Genie.NewProcess()
		rx := tb.B.Genie.NewProcess()
		src, err := tx.Brk(n)
		if err != nil {
			return 0, false, err
		}
		dst, err := rx.Brk(n)
		if err != nil {
			return 0, false, err
		}
		if err := tx.Write(src, bytes.Repeat([]byte{0xA1}, n)); err != nil {
			return 0, false, err
		}
		sentinel := bytes.Repeat([]byte{0xEE}, n)
		if err := rx.Write(dst, sentinel); err != nil {
			return 0, false, err
		}
		if _, err := rx.Input(1, sem, dst, n); err != nil {
			return 0, false, err
		}
		tb.A.NIC.CorruptNextTx(123)
		if _, err := tx.Output(1, sem, src, n); err != nil {
			return 0, false, err
		}
		tb.Run()
		got := make([]byte, n)
		if err := rx.Read(dst, got); err != nil {
			return 0, false, err
		}
		return m.LatencyUS, bytes.Equal(got, sentinel), nil
	}
	cases := []struct {
		label string
		mode  core.ChecksumMode
		sem   core.Semantics
	}{
		{"copy + separate pass", core.ChecksumSeparate, core.Copy},
		{"copy + integrated (read&write)", core.ChecksumIntegrated, core.Copy},
		{"emulated copy + read pass", core.ChecksumSeparate, core.EmulatedCopy},
	}
	rows := make([][]string, len(cases))
	err := r.ForEach(len(cases), func(i int) error {
		c := cases[i]
		lat, intact, err := run(c.mode, c.sem)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		rows[i] = []string{c.label, fmt.Sprintf("%.0f", lat), fmt.Sprint(intact)}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}

// AblationPageout demonstrates input-disabled pageout end to end: a
// pageout daemon storm during pending I/O never touches input pages and
// never corrupts output data, with no wiring in the emulated semantics.
func AblationPageout(s Setup, _ Runner) (Table, error) {
	s = s.env()
	s.Scheme = netsim.EarlyDemux
	t := Table{
		ID:     "Ablation: pageout during I/O",
		Title:  "Pageout daemon pressure during pending emulated-semantics I/O (4 pages)",
		Header: []string{"moment", "evictable pages", "paged out", "data intact"},
	}
	tb, err := newTestbed(s, measureTestbedConfig(s))
	if err != nil {
		return Table{}, err
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	const length = 4 * 4096
	srcVA, err := sender.Brk(length)
	if err != nil {
		return Table{}, err
	}
	dstVA, err := receiver.Brk(length)
	if err != nil {
		return Table{}, err
	}
	payload := bytes.Repeat([]byte{0x9D}, length)
	if err := sender.Write(srcVA, payload); err != nil {
		return Table{}, err
	}

	in, err := receiver.Input(1, core.EmulatedShare, dstVA, length)
	if err != nil {
		return Table{}, err
	}
	out, err := sender.Output(1, core.EmulatedCopy, srcVA, length)
	if err != nil {
		return Table{}, err
	}

	rxDaemon := vm.NewPageoutDaemon(tb.B.Sys)
	txDaemon := vm.NewPageoutDaemon(tb.A.Sys)
	evictableRx := rxDaemon.Evictable()
	outRx := rxDaemon.ScanOnce(1000)
	outTx := txDaemon.ScanOnce(1000)
	t.Rows = append(t.Rows, []string{"receiver, input pending", fmt.Sprint(evictableRx), fmt.Sprint(outRx), "n/a"})
	t.Rows = append(t.Rows, []string{"sender, output pending", "-", fmt.Sprint(outTx), "n/a"})

	tb.Run()
	if out.Err != nil || in.Err != nil {
		return Table{}, fmt.Errorf("pageout ablation transfer failed: %v %v", out.Err, in.Err)
	}
	got := make([]byte, length)
	if err := receiver.Read(in.Addr, got); err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{"after completion", "-", "-", fmt.Sprint(bytes.Equal(got, payload))})
	return t, nil
}
