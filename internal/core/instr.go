package core

import (
	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stage is the processing stage an operation was charged in.
type Stage int

// Processing stages (Section 6).
const (
	StagePrepare Stage = iota
	StageReady
	StageDispose
)

var stageNames = [...]string{"prepare", "ready", "dispose"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "Stage?"
}

// OpRecord is one instrumented primitive operation, analogous to the
// paper's cycle-counter samples.
type OpRecord struct {
	Op      cost.Op
	Bytes   int
	Latency sim.Duration
	Stage   Stage
	At      sim.Time
}

// Instrumentation records per-operation latencies, from which the
// experiment harness recovers the Table 6 linear fits.
type Instrumentation struct {
	Enabled bool
	records []OpRecord
}

func (in *Instrumentation) record(r OpRecord) {
	if in.Enabled {
		in.records = append(in.records, r)
	}
}

// Records returns all recorded operations.
func (in *Instrumentation) Records() []OpRecord { return in.records }

// Reset discards recorded operations.
func (in *Instrumentation) Reset() { in.records = in.records[:0] }

// opCtx carries the operation attributes trace events are tagged with:
// the semantics name, the demultiplexing port, and the span correlation
// id of the input or output operation the charges belong to. The zero
// value marks charges outside any traced operation (local IPC).
type opCtx struct {
	sem  string
	port int
	span uint64
}

// octx returns the trace attribution context of an input operation.
func (in *InputOp) octx() opCtx {
	return opCtx{sem: in.Sem.String(), port: in.Port, span: in.span}
}

// octx returns the trace attribution context of an output operation.
func (op *OutputOp) octx() opCtx {
	return opCtx{sem: op.Effective.String(), port: op.Port, span: op.span}
}

// chargeSet applies a sequence of charges at the current simulated time,
// recording each op and returning the total latency. Every charge also
// counts as CPU busy time via the supplied accumulator. With a tracer
// installed, each charge is emitted as a Complete op event, tiled
// sequentially from the current time so chrome://tracing renders the
// charges of one stage side by side under the stage span.
func (g *Genie) chargeSet(stage Stage, oc opCtx, charges []Charge, cpu *float64) sim.Duration {
	var total sim.Duration
	now := g.eng.Now()
	for _, c := range charges {
		d := c.cost(g.model)
		total += d
		if cpu != nil {
			*cpu += d.Micros()
		}
		g.instr.record(OpRecord{Op: c.Op, Bytes: c.Bytes, Latency: d, Stage: stage, At: now})
		if g.tr != nil {
			g.tr.Emit(trace.Event{
				At: now.Add(total - d), Dur: d, Phase: trace.Complete, Cat: trace.CatOp,
				Name: c.Op.String(), Sem: oc.sem, Stage: stage.String(),
				Port: oc.port, Bytes: c.Bytes, Span: oc.span,
			})
		}
	}
	return total
}
