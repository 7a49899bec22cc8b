// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 7 and 8) from the simulated testbed: end-to-end
// latency sweeps (Figures 3, 5, 6, 7), CPU utilization (Figure 4),
// primitive-operation cost fits (Table 6), the breakdown model versus
// measured latencies (Table 7), cross-platform scaling (Table 8), and
// the OC-12 extrapolation, plus ablations of Genie's design choices.
package experiments

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/mem"
	"repro/internal/netsim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Setup fixes the experimental configuration for one measurement run.
type Setup struct {
	Model *cost.Model
	// Scheme is the receiver's device input buffering architecture.
	Scheme netsim.InputBuffering
	// DevOff is the device payload placement offset (pooled buffering).
	DevOff int
	// AppOffset is where the receiving application places its buffer
	// within a page. Buffers are aligned to the device (swapping
	// possible) when AppOffset == DevOff modulo the page size —
	// application input alignment is AppOffset = the queried preferred
	// offset; anything else forces copyout on the receive side.
	AppOffset int
	// Genie overrides framework tunables (zero value: paper defaults).
	Genie core.Config
	// Instrument records primitive-operation latencies for Table 6.
	Instrument bool
	// Tracer, when non-nil, receives the structured event stream of the
	// run (operation spans, charges, VM and network events). A traced
	// point always performs the real simulation — the measurement cache
	// is bypassed so every event is re-emitted — but the returned
	// numbers are identical to an untraced run: tracing reads the
	// simulation, it never perturbs it.
	Tracer *trace.Tracer
	// Plane is the data-plane representation of this setup's testbeds;
	// nil is the symbolic plane. Figure and table generation never reads
	// payload contents except to verify delivery, which the symbolic
	// plane answers from provenance descriptors, and the cost model
	// charges on lengths, never contents, so measurements are
	// byte-identical on either plane
	// (TestFullSetByteIdenticalAcrossRegimes).
	Plane mem.DataPlane
	// Faults configures seeded deterministic fault injection on the
	// point's testbeds. The zero spec disables injection; a seed-only
	// spec arms an injector that never fires, so results must match the
	// fault-free figures byte for byte. Faulted points memoize and
	// recycle separately from fault-free ones (the spec is part of both
	// the cache key and the testbed configuration).
	Faults faults.Spec
}

// model resolves the setup's cost model. Models are immutable after
// construction (see cost.Model), so the shared baseline — and any model
// stored in a Setup — is safe to read from every worker concurrently.
func (s Setup) model() *cost.Model {
	if s.Model == nil {
		return cost.Baseline()
	}
	return s.Model
}

// plane resolves the setup's data plane: nil is the symbolic plane.
func (s Setup) plane() mem.DataPlane {
	if s.Plane == nil {
		return mem.Symbolic
	}
	return s.Plane
}

// env returns the part of s every experiment measures under, whatever
// configuration it sets itself: the cost model, data plane, fault spec
// and tracer.
func (s Setup) env() Setup {
	return Setup{Model: s.Model, Plane: s.Plane, Faults: s.Faults, Tracer: s.Tracer}
}

// newTestbed builds a fresh testbed from cfg with s's tracer attached,
// for the experiments that drive a testbed themselves instead of
// through Measure.
func newTestbed(s Setup, cfg core.TestbedConfig) (*core.Testbed, error) {
	tb, err := core.NewTestbed(cfg)
	if err != nil {
		return nil, err
	}
	tb.SetTracer(s.Tracer)
	return tb, nil
}

// bufPool recycles the payload and verification buffers across
// measurement points. Each Measure call needed two make([]byte, length)
// allocations; with sweeps running thousands of points, recycling keeps
// the harness hot path allocation-free. sync.Pool gives each worker its
// own cached buffers without locking.
var bufPool sync.Pool

// getBuf returns a length-n buffer with arbitrary contents.
func getBuf(n int) []byte {
	if v := bufPool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putBuf recycles a buffer obtained from getBuf.
func putBuf(b []byte) { bufPool.Put(&b) }

// runBufPool recycles the symbolic plane's verification buffers, whose
// run lists the read-back gathers into.
var runBufPool = sync.Pool{New: func() any { return new(mem.Buf) }}

// Measurement is the outcome of one datagram transfer. Measurements
// returned by Measure may be shared by reference across callers (the
// measurement cache memoizes them), so the Records slice must be
// treated as immutable.
type Measurement struct {
	Sem       core.Semantics
	Bytes     int
	LatencyUS float64 // end-to-end latency
	RxCPUUS   float64 // receiver CPU busy time for the datagram
	TxCPUUS   float64 // sender CPU busy time
	Records   []core.OpRecord
}

// Utilization is the receiver CPU utilization during the latency test,
// as the paper measured by instrumenting the scheduler idle loop.
func (m Measurement) Utilization() float64 {
	if m.LatencyUS <= 0 {
		return 0
	}
	return m.RxCPUUS / m.LatencyUS
}

// ThroughputMbps is the single-datagram equivalent throughput.
func (m Measurement) ThroughputMbps() float64 {
	if m.LatencyUS <= 0 {
		return 0
	}
	return float64(m.Bytes) * 8 / m.LatencyUS
}

// Measure performs one transfer of length bytes under sem and returns
// the measurement. Each point runs on its own private testbed, which
// makes sweeps deterministic and independent, like the paper's
// per-length runs on a quiet network. Identical points are memoized
// (see measureMemo) and testbeds are recycled across points (see
// testbeds); both layers are transparent — output is byte-identical to
// a cold Measure on a fresh testbed.
func Measure(s Setup, sem core.Semantics, length int) (Measurement, error) {
	if s.AppOffset < 0 {
		return Measurement{}, fmt.Errorf("experiments: negative AppOffset %d", s.AppOffset)
	}
	// Traced runs bypass the memo: the caller wants the event stream,
	// which only a real simulation produces.
	if s.Tracer != nil {
		return measureUncached(s, sem, length)
	}
	key := measureKey(s, sem, length)
	r, h, ok := measureMemo.lookup(key)
	if ok {
		return r.m, r.err
	}
	m, err := measureUncached(s, sem, length)
	measureMemo.store(key, h, memoResult{m, err})
	return m, err
}

// measureTestbedConfig is the testbed configuration Measure uses for a
// given Setup. It must stay a pure function of the Setup fields that
// are part of the cache key.
func measureTestbedConfig(s Setup) core.TestbedConfig {
	return core.TestbedConfig{
		Model:      s.model(),
		Buffering:  s.Scheme,
		OverlayOff: s.DevOff,
		Genie:      s.Genie,
		Plane:      s.plane(),
		Faults:     s.Faults,
	}
}

// measureUncached simulates the point, on a recycled testbed when one
// is free. Testbeds are returned to the recycler only after a clean
// measurement; a failed point's testbed is in an unknown state and is
// dropped.
func measureUncached(s Setup, sem core.Semantics, length int) (Measurement, error) {
	cfg := measureTestbedConfig(s)
	tb, err := testbeds.Get(cfg, func() (*core.Testbed, error) { return core.NewTestbed(cfg) })
	if err != nil {
		return Measurement{}, err
	}
	m, err := measureOn(tb, s, sem, length)
	if err != nil {
		return Measurement{}, err
	}
	testbeds.Put(cfg, tb)
	return m, nil
}

// measureOn performs the transfer on the given freshly built or freshly
// Reset testbed.
func measureOn(tb *core.Testbed, s Setup, sem core.Semantics, length int) (Measurement, error) {
	if s.Instrument {
		tb.A.Genie.Instr().Enabled = true
		tb.B.Genie.Instr().Enabled = true
	}
	if s.Tracer != nil {
		// Reset (on release or reacquisition) detaches the tracer again,
		// so recycled testbeds never emit into a stale sink.
		tb.SetTracer(s.Tracer)
	}
	sender := tb.A.Genie.NewProcess()
	receiver := tb.B.Genie.NewProcess()
	ps := tb.Model.Platform.PageSize
	symbolic := tb.A.Phys.Symbolic()

	// The payload resolves to byte(i) at offset i on either plane. On
	// the bytes plane it is a pooled materialized buffer; on the
	// symbolic plane it is a pattern descriptor from a fresh source, so
	// the whole transfer moves provenance instead of bytes and delivery
	// verification can match descriptors.
	var payload []byte
	var payloadBuf mem.Buf
	if symbolic {
		payloadBuf = mem.PatternBuf(mem.NewPatternSource(), 0, length)
	} else {
		payload = getBuf(length)
		defer putBuf(payload)
		for i := range payload {
			payload[i] = byte(i)
		}
	}

	var srcVA, dstVA vm.Addr
	if sem.SystemAllocated() {
		r, err := sender.AllocIOBuffer(length)
		if err != nil {
			return Measurement{}, err
		}
		srcVA = r.Start()
	} else {
		base, err := sender.Brk(length + 2*ps)
		if err != nil {
			return Measurement{}, err
		}
		srcVA = base
		dbase, err := receiver.Brk(length + 2*ps)
		if err != nil {
			return Measurement{}, err
		}
		dstVA = dbase + vm.Addr(s.AppOffset%ps)
	}
	if symbolic {
		if err := sender.WriteBuf(srcVA, payloadBuf); err != nil {
			return Measurement{}, err
		}
	} else {
		if err := sender.Write(srcVA, payload); err != nil {
			return Measurement{}, err
		}
	}

	out, in, err := tb.Transfer(sender, receiver, 1, sem, srcVA, dstVA, length)
	if err != nil {
		return Measurement{}, fmt.Errorf("experiments: %v %dB: %w", sem, length, err)
	}
	// Verify delivery: a latency number for a broken transfer is noise.
	// On the symbolic plane the received descriptors are matched against
	// the sent pattern (falling back to resolved contents); on the bytes
	// plane a vectorized comparison replaces the old per-byte loop, with
	// the first mismatching offset recovered only on failure.
	if symbolic {
		got := runBufPool.Get().(*mem.Buf)
		defer runBufPool.Put(got)
		got.Reset()
		if err := receiver.Space().PeekBufInto(got, in.Addr, in.N); err != nil {
			return Measurement{}, err
		}
		if !got.Equal(payloadBuf.Slice(0, in.N)) {
			return Measurement{}, corruptErr(sem, length, got.Resolve(), payloadBuf.Resolve())
		}
	} else {
		got := getBuf(in.N)
		defer putBuf(got)
		if err := receiver.Read(in.Addr, got); err != nil {
			return Measurement{}, err
		}
		if !bytes.Equal(got, payload[:in.N]) {
			return Measurement{}, corruptErr(sem, length, got, payload)
		}
	}

	m := Measurement{
		Sem:       sem,
		Bytes:     length,
		LatencyUS: in.CompletedAt.Sub(out.StartedAt).Micros(),
		RxCPUUS:   in.ReceiverCPU,
		TxCPUUS:   out.SenderCPU,
	}
	if s.Instrument {
		m.Records = append(m.Records, tb.A.Genie.Instr().Records()...)
		m.Records = append(m.Records, tb.B.Genie.Instr().Records()...)
	}
	return m, nil
}

// corruptErr pinpoints the first mismatching byte of a failed delivery
// verification. Only the error path pays for the scan.
func corruptErr(sem core.Semantics, length int, got, want []byte) error {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("experiments: %v %dB: corrupt byte %d: got %#02x want %#02x",
				sem, length, i, got[i], want[i])
		}
	}
	return fmt.Errorf("experiments: %v %dB: delivered %d bytes, want %d", sem, length, len(got), len(want))
}

// PageSweep returns the paper's page-multiple datagram lengths, 4 KB to
// 60 KB (the largest multiple AAL5 allows).
func PageSweep(pageSize int) []int {
	var out []int
	for b := pageSize; b <= cost.MaxAAL5Datagram; b += pageSize {
		out = append(out, b)
	}
	return out
}

// ShortSweep returns the short-datagram lengths of Figure 5.
func ShortSweep() []int {
	return []int{64, 128, 256, 512, 768, 1024, 1280, 1536, 1792, 2048,
		2304, 2560, 3072, 3584, 4096, 5120, 6144, 7168, 8192}
}
