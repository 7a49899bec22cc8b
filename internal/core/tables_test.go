package core

import (
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/netsim"
	"repro/internal/vm"
)

// opsOfStage extracts the operation sequence one host recorded for a
// stage, in execution order.
func opsOfStage(in *Instrumentation, stage Stage) []cost.Op {
	var out []cost.Op
	for _, r := range in.Records() {
		if r.Stage == stage {
			out = append(out, r.Op)
		}
	}
	return out
}

func sameOps(a, b []cost.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTables234Conformance runs one canonical transfer per semantics and
// device architecture with instrumentation on, and verifies the executed
// operation sequences match the declared Tables 2-4 exactly — stage by
// stage, in order, on both hosts. Any drift between the data path and
// the paper's tables fails here.
func TestTables234Conformance(t *testing.T) {
	const length = 4 * 4096
	for _, scheme := range []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering} {
		for _, sem := range AllSemantics() {
			scheme, sem := scheme, sem
			t.Run(scheme.String()+"/"+sem.String(), func(t *testing.T) {
				tb, err := NewTestbed(TestbedConfig{Buffering: scheme})
				if err != nil {
					t.Fatal(err)
				}
				tb.A.Genie.Instr().Enabled = true
				tb.B.Genie.Instr().Enabled = true
				sender := tb.A.Genie.NewProcess()
				receiver := tb.B.Genie.NewProcess()

				var srcVA, dstVA vm.Addr
				if sem.SystemAllocated() {
					r, err := sender.AllocIOBuffer(length)
					if err != nil {
						t.Fatal(err)
					}
					srcVA = r.Start()
				} else {
					srcVA, _ = sender.Brk(length)
					dstVA, _ = receiver.Brk(length)
				}
				if err := sender.Write(srcVA, make([]byte, length)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := tb.Transfer(sender, receiver, 1, sem, srcVA, dstVA, length); err != nil {
					t.Fatal(err)
				}

				// Sender side: Table 2.
				gotPrep := opsOfStage(tb.A.Genie.Instr(), StagePrepare)
				if want := OutputPrepareOps(sem); !sameOps(gotPrep, want) {
					t.Errorf("output prepare ops = %v, table says %v", gotPrep, want)
				}
				gotDisp := opsOfStage(tb.A.Genie.Instr(), StageDispose)
				if want := OutputDisposeOps(sem); !sameOps(gotDisp, want) {
					t.Errorf("output dispose ops = %v, table says %v", gotDisp, want)
				}

				// Receiver side: Tables 3/4 and Section 6.2.3; cold
				// region cache on the first input.
				gotRxPrep := opsOfStage(tb.B.Genie.Instr(), StagePrepare)
				if want := InputPrepareOps(sem, false); !sameOps(gotRxPrep, want) {
					t.Errorf("input prepare ops = %v, table says %v", gotRxPrep, want)
				}
				gotRxReady := opsOfStage(tb.B.Genie.Instr(), StageReady)
				if want := InputReadyOps(sem, scheme); !sameOps(gotRxReady, want) {
					t.Errorf("input ready ops = %v, table says %v", gotRxReady, want)
				}
				gotRxDisp := opsOfStage(tb.B.Genie.Instr(), StageDispose)
				if want := InputDisposeOps(sem, scheme); !sameOps(gotRxDisp, want) {
					t.Errorf("input dispose ops = %v, table says %v", gotRxDisp, want)
				}
			})
		}
	}
}

// recordsOfStage extracts the charges one host recorded for a stage, in
// execution order.
func recordsOfStage(in *Instrumentation, stage Stage) []charge {
	var out []charge
	for _, r := range in.Records() {
		if r.Stage == stage {
			out = append(out, charge{r.Op, r.Bytes})
		}
	}
	return out
}

// TestTable2SenderPaths: every path that sends data out of an
// application buffer follows Table 2. FileWrite runs each semantics'
// prepare/dispose sequence, except that copy's system buffer is the
// cache page (a copyin and nothing to dispose). A two-segment OutputV
// repeats the per-segment sequence for each in-place semantics, and
// charges copy's once over the coalesced system buffer.
func TestTable2SenderPaths(t *testing.T) {
	const length = 4 * 4096
	for _, sem := range AllSemantics() {
		t.Run("FileWrite/"+sem.String(), func(t *testing.T) {
			tb, err := NewTestbed(TestbedConfig{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStorage(tb.A, DiskConfig{})
			if err != nil {
				t.Fatal(err)
			}
			p := tb.A.Genie.NewProcess()
			var va vm.Addr
			if sem.SystemAllocated() {
				r, err := p.AllocIOBuffer(length)
				if err != nil {
					t.Fatal(err)
				}
				va = r.Start()
			} else {
				va = mustBrk(t, p, length)
			}
			if err := p.Write(va, make([]byte, length)); err != nil {
				t.Fatal(err)
			}
			in := tb.A.Genie.Instr()
			in.Enabled = true
			if _, err := s.FileWrite(p, sem, 0, length, va); err != nil {
				t.Fatal(err)
			}
			tb.Run()
			wantPrep, wantDisp := OutputPrepareOps(sem), OutputDisposeOps(sem)
			if sem == Copy {
				wantPrep, wantDisp = []cost.Op{cost.Copyin}, nil
			}
			if got := opsOfStage(in, StagePrepare); !sameOps(got, wantPrep) {
				t.Errorf("prepare ops = %v, want %v", got, wantPrep)
			}
			if got := opsOfStage(in, StageDispose); !sameOps(got, wantDisp) {
				t.Errorf("dispose ops = %v, want %v", got, wantDisp)
			}
		})
	}
	for _, sem := range []Semantics{Copy, EmulatedCopy, Share, EmulatedShare} {
		t.Run("OutputV/"+sem.String(), func(t *testing.T) {
			tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
			if err != nil {
				t.Fatal(err)
			}
			tx, rx := tb.A.Genie.NewProcess(), tb.B.Genie.NewProcess()
			segs := []Segment{{mustBrk(t, tx, 4096), 4096}, {mustBrk(t, tx, 2*4096), 2 * 4096}}
			total := 0
			for _, sg := range segs {
				if err := tx.Write(sg.VA, make([]byte, sg.Len)); err != nil {
					t.Fatal(err)
				}
				total += sg.Len
			}
			if _, err := rx.Input(1, sem, mustBrk(t, rx, total), total); err != nil {
				t.Fatal(err)
			}
			in := tb.A.Genie.Instr()
			in.Enabled = true
			out, err := tx.OutputV(1, sem, segs)
			if err != nil {
				t.Fatal(err)
			}
			tb.Run()
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			var wantPrep, wantDisp []charge
			expand := func(ops []cost.Op, n int) (ch []charge) {
				for _, op := range ops {
					ch = append(ch, charge{op, n})
				}
				return ch
			}
			if sem == Copy {
				wantPrep, wantDisp = expand(OutputPrepareOps(sem), total), expand(OutputDisposeOps(sem), total)
			} else {
				for _, sg := range segs {
					wantPrep = append(wantPrep, expand(OutputPrepareOps(sem), sg.Len)...)
					wantDisp = append(wantDisp, expand(OutputDisposeOps(sem), sg.Len)...)
				}
			}
			if got := recordsOfStage(in, StagePrepare); !slices.Equal(got, wantPrep) {
				t.Errorf("prepare charges = %v, want %v", got, wantPrep)
			}
			if got := recordsOfStage(in, StageDispose); !slices.Equal(got, wantDisp) {
				t.Errorf("dispose charges = %v, want %v", got, wantDisp)
			}
		})
	}
}

// TestTablesCoverAllSemantics: every semantics has a declared sequence
// in every table.
func TestTablesCoverAllSemantics(t *testing.T) {
	for _, sem := range AllSemantics() {
		if OutputPrepareOps(sem) == nil {
			t.Errorf("%v: no output prepare ops", sem)
		}
		if OutputDisposeOps(sem) == nil {
			t.Errorf("%v: no output dispose ops", sem)
		}
		for _, scheme := range []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering} {
			if InputDisposeOps(sem, scheme) == nil {
				t.Errorf("%v/%v: no input dispose ops", sem, scheme)
			}
		}
	}
}

// TestProcessExitDuringIO: the application terminates with output in
// flight; the transfer's pages survive until the device completes and
// the whole address space is reclaimed afterwards — the Section 3.1
// termination hazard, end to end.
func TestProcessExitDuringIO(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	const length = 3 * 4096
	srcVA, _ := sender.Brk(length)
	dstVA, _ := receiver.Brk(length)
	payload := make([]byte, length)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := sender.Write(srcVA, payload); err != nil {
		t.Fatal(err)
	}
	in, err := receiver.Input(1, EmulatedShare, dstVA, length)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Output(1, EmulatedCopy, srcVA, length); err != nil {
		t.Fatal(err)
	}
	// The sender dies before a single cell has left.
	sender.Exit()
	tb.Run()
	if in.Err != nil {
		t.Fatal(in.Err)
	}
	got := make([]byte, length)
	if err := receiver.Read(in.Addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d corrupted after sender exit during output", i)
		}
	}
	// All sender frames return to the free list once I/O completed.
	if free := tb.A.Phys.FreeFrames(); free != tb.A.Phys.NumFrames()-tb.A.Genie.Config().KernelPoolPages {
		t.Errorf("sender frames not reclaimed after exit: %d free", free)
	}
	if err := tb.A.Phys.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestReceiverExitDuringInput: the receiver dies with an in-place input
// posted; the arriving DMA lands in pages that are pending-free and the
// system never hands them to anyone else mid-flight.
func TestReceiverExitDuringInput(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{Buffering: netsim.EarlyDemux})
	if err != nil {
		t.Fatal(err)
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	const length = 2 * 4096
	srcVA, _ := sender.Brk(length)
	dstVA, _ := receiver.Brk(length)
	if err := sender.Write(srcVA, make([]byte, length)); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Input(1, EmulatedShare, dstVA, length); err != nil {
		t.Fatal(err)
	}
	receiver.Exit()
	// A hostile process tries to grab all memory while the input is
	// still pending.
	vandal := tb.B.Genie.NewProcess()
	grab, err := vandal.Brk(4 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := vandal.Write(grab, make([]byte, 4*4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Output(1, EmulatedShare, srcVA, length); err != nil {
		t.Fatal(err)
	}
	tb.Run()
	// The vandal's memory is untouched by the DMA.
	buf := make([]byte, 4*4096)
	if err := vandal.Read(grab, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("vandal byte %d = %#x: DMA landed in another process's memory", i, b)
		}
	}
	if err := tb.B.Phys.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
