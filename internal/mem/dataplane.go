// Symbolic data plane: payload contents carried as provenance
// descriptors instead of materialized bytes.
//
// Every latency and throughput number the simulator reports derives
// from the cost model, which prices operations by byte *count*, never
// by byte *content*. The data plane therefore only has to answer "what
// bytes would be here?" when someone actually looks — delivery
// verification, checksum computation, fault injection — and can
// represent everything else as (source, offset, length) extents, the
// same observation that drives fbufs and IO-Lite. A copy, a DMA
// transfer, an outboard staging, or a COW resolution becomes an
// O(#extents) descriptor splice instead of an O(bytes) copy.
package mem

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
)

// SourceID identifies where a run of bytes came from.
//
// Zero and literal runs are self-describing. Positive IDs name pattern
// sources: payload i of a pattern source is byte(i), exactly the
// canonical payload the experiment harness writes. Pattern IDs are
// provenance only — two distinct sources resolve to the same bytes —
// so a descriptor-level comparison that also matches IDs is strictly
// stricter than a byte comparison.
type SourceID int64

const (
	// SrcZero marks a run of zero bytes (fresh anonymous memory).
	SrcZero SourceID = 0
	// SrcLiteral marks a run whose bytes are stored verbatim in the run.
	SrcLiteral SourceID = -1
)

// patternCounter hands out fresh pattern source IDs. It is global and
// never reset: recycled testbeds keep stale IDs in reused frames, which
// can only make provenance comparisons fail toward the byte-level
// fallback, never falsely succeed.
var patternCounter atomic.Int64

// NewPatternSource returns a fresh pattern source ID. Byte i of the
// source is byte(i).
func NewPatternSource() SourceID {
	return SourceID(patternCounter.Add(1))
}

// Run is one extent of a symbolic buffer: Len bytes drawn from Src
// starting at source offset Off. Literal runs carry their bytes in lit
// (with Off == 0); lit slices are immutable by convention — splices
// replace runs, they never write through lit.
type Run struct {
	Src SourceID
	Off int
	Len int
	lit []byte
}

// resolveInto writes the run's bytes into dst (len(dst) == r.Len).
func (r Run) resolveInto(dst []byte) {
	switch r.Src {
	case SrcZero:
		clear(dst)
	case SrcLiteral:
		copy(dst, r.lit)
	default:
		for i := range dst {
			dst[i] = byte(r.Off + i)
		}
	}
}

// slice returns the sub-run [off, off+n) of r.
func (r Run) slice(off, n int) Run {
	s := Run{Src: r.Src, Len: n}
	switch r.Src {
	case SrcZero:
	case SrcLiteral:
		s.lit = r.lit[off : off+n : off+n]
	default:
		s.Off = r.Off + off
	}
	return s
}

// appendRun appends r to runs, coalescing with the previous run when
// the two are contiguous in the same source.
func appendRun(runs []Run, r Run) []Run {
	if r.Len == 0 {
		return runs
	}
	if n := len(runs); n > 0 {
		p := &runs[n-1]
		switch {
		case p.Src == SrcZero && r.Src == SrcZero:
			p.Len += r.Len
			return runs
		case p.Src == r.Src && p.Src > 0 && p.Off+p.Len == r.Off:
			p.Len += r.Len
			return runs
		}
	}
	return append(runs, r)
}

// appendSlice appends the runs covering [off, off+n) of runs to out,
// coalescing the first of them with out's last run. It is the
// package's one run-window loop: slices, splices, gathers and windowed
// reads are all built on it, so a window is cut in one pass straight
// into whichever run list the caller owns.
func appendSlice(out, runs []Run, off, n int) []Run {
	for _, r := range runs {
		if n == 0 {
			break
		}
		if off >= r.Len {
			off -= r.Len
			continue
		}
		take := min(r.Len-off, n)
		out = appendRun(out, r.slice(off, take))
		off = 0
		n -= take
	}
	if n != 0 {
		panic(fmt.Sprintf("mem: run slice overruns buffer by %d bytes", n))
	}
	return out
}

// sliceRuns returns the runs covering [off, off+n) of runs in a fresh
// list.
func sliceRuns(runs []Run, off, n int) []Run {
	if n == 0 {
		return nil
	}
	return appendSlice(make([]Run, 0, len(runs)), runs, off, n)
}

// stackRuns is the run count a splice or windowed read handles in a
// stack array; a longer list spills to the heap.
const stackRuns = 16

// resolveWindow resolves bytes [off, off+len(p)) of runs into p,
// cutting the window into a stack array rather than a fresh list.
func resolveWindow(runs []Run, off int, p []byte) {
	var w [stackRuns]Run
	resolveRuns(appendSlice(w[:0], runs, off, len(p)), p)
}

// zeroRuns is an endless zero run: any window of it is zeros, so a
// clear splices from it without building a buffer.
var zeroRuns = []Run{{Src: SrcZero, Len: math.MaxInt}}

// resolveRuns materializes runs into dst.
func resolveRuns(runs []Run, dst []byte) {
	pos := 0
	for _, r := range runs {
		r.resolveInto(dst[pos : pos+r.Len])
		pos += r.Len
	}
}

// Buf is a logical byte string in one of two representations:
// materialized bytes (the Bytes plane) or a list of provenance runs
// (the Symbolic plane). The zero value is an empty buffer.
//
// Bufs are values: Slice and Append never mutate their operands, and a
// symbolic Buf never references frame storage — its runs stay valid no
// matter what later happens to the frames the bytes were read from.
// A bytes-backed Buf aliases the slice it was built from; producers
// hand out freshly allocated slices on read paths, preserving the same
// snapshot guarantee. The documented exceptions are borrowed views —
// Frame.BorrowBuf, blockdev's Peek/ReadBlocks and the reusable stages
// of the storage and copyout paths — which alias live storage and must
// be consumed before that storage is next written, and wire buffers
// (GetWire), which belong to their frame until the receiving adapter
// has copied them out and hands them back.
type Buf struct {
	n     int
	bytes []byte // materialized representation, nil when symbolic
	runs  []Run  // symbolic representation
}

// BufBytes wraps p as a materialized buffer. The Buf aliases p.
func BufBytes(p []byte) Buf { return Buf{n: len(p), bytes: p} }

// ZeroBuf returns a symbolic buffer of n zero bytes.
func ZeroBuf(n int) Buf {
	if n == 0 {
		return Buf{}
	}
	return Buf{n: n, runs: []Run{{Src: SrcZero, Len: n}}}
}

// PatternBuf returns a symbolic buffer of n bytes drawn from pattern
// source src starting at source offset off.
func PatternBuf(src SourceID, off, n int) Buf {
	if n == 0 {
		return Buf{}
	}
	return Buf{n: n, runs: []Run{{Src: src, Off: off, Len: n}}}
}

// LiteralBuf returns a symbolic buffer carrying p verbatim. The caller
// must not mutate p afterwards (literal runs are immutable).
func LiteralBuf(p []byte) Buf {
	if len(p) == 0 {
		return Buf{}
	}
	return Buf{n: len(p), runs: []Run{{Src: SrcLiteral, Len: len(p), lit: p}}}
}

// Len returns the buffer length in bytes.
func (b Buf) Len() int { return b.n }

// Symbolic reports whether the buffer is run-backed.
func (b Buf) Symbolic() bool { return b.bytes == nil }

// Runs returns the buffer's runs (converting a bytes-backed buffer to
// a single literal run). The result must be treated as immutable.
func (b Buf) Runs() []Run {
	if b.bytes != nil {
		return []Run{{Src: SrcLiteral, Len: b.n, lit: b.bytes}}
	}
	return b.runs
}

// Slice returns the sub-buffer [off, off+n). The whole buffer's slice
// is b itself, sharing its storage as Append's empty-operand results
// do.
func (b Buf) Slice(off, n int) Buf {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("mem: Buf.Slice(%d, %d) of %d-byte buffer", off, n, b.n))
	}
	if off == 0 && n == b.n {
		return b
	}
	if b.bytes != nil {
		return Buf{n: n, bytes: b.bytes[off : off+n : off+n]}
	}
	return Buf{n: n, runs: sliceRuns(b.runs, off, n)}
}

// Append returns the concatenation b + o. It joins two operands: a loop
// of Append copies its whole prefix at every step, so a gather of n
// pages builds its result once with AppendFrame instead.
func (b Buf) Append(o Buf) Buf {
	switch {
	case o.n == 0:
		return b
	case b.n == 0:
		return o
	case b.bytes != nil && o.bytes != nil:
		joined := make([]byte, 0, b.n+o.n)
		joined = append(joined, b.bytes...)
		joined = append(joined, o.bytes...)
		return Buf{n: b.n + o.n, bytes: joined}
	}
	runs := make([]Run, 0, len(b.runs)+len(o.runs)+2)
	runs = appendSlice(runs, b.Runs(), 0, b.n)
	runs = appendSlice(runs, o.Runs(), 0, o.n)
	return Buf{n: b.n + o.n, runs: runs}
}

// AppendFrame appends bytes [off, off+n) of the symbolic frame f to b,
// the one-pass builder of a symbolic gather: each call cuts the frame's
// window straight into b's own run list, coalescing at the seam, so a
// contiguous gather of many pages allocates once. Coalescing extends
// b's last run in place, so only b's owner may call it, on a Buf it
// built from the zero value with AppendFrame alone and has not yet
// handed out.
func (b *Buf) AppendFrame(f *Frame, off, n int) {
	if f.runs == nil || b.bytes != nil {
		panic("mem: AppendFrame needs a symbolic frame and a symbolic buffer")
	}
	if off < 0 || n < 0 || off+n > f.size {
		panic(fmt.Sprintf("mem: AppendFrame(%d..%d) overruns %d-byte frame", off, off+n, f.size))
	}
	b.runs = appendSlice(b.runs, f.runs, off, n)
	b.n += n
}

// AppendFrames appends bytes [off, off+n) of the symbolic frame run
// frames (frame 0 holds bytes [0, pageSize), frame 1 the next page, and
// so on) to b, under AppendFrame's rules.
func (b *Buf) AppendFrames(frames []*Frame, off, n int) {
	if n == 0 {
		return
	}
	ps := frames[0].Size()
	for pos := 0; pos < n; {
		fi := (off + pos) / ps
		po := (off + pos) % ps
		k := min(ps-po, n-pos)
		b.AppendFrame(frames[fi], po, k)
		pos += k
	}
}

// Reset empties b and keeps its run storage, for an owner that gathers
// into the same Buf again: a stage whose content is borrowed until the
// owner's next gather. Every Buf handed out from b must be dead.
func (b *Buf) Reset() {
	clear(b.runs)
	*b = Buf{runs: b.runs[:0]}
}

// ReadAt resolves bytes [off, off+len(p)) of the buffer into p.
func (b Buf) ReadAt(p []byte, off int) {
	if off < 0 || off+len(p) > b.n {
		panic(fmt.Sprintf("mem: Buf.ReadAt(%d..%d) of %d-byte buffer", off, off+len(p), b.n))
	}
	if b.bytes != nil {
		copy(p, b.bytes[off:])
		return
	}
	resolveWindow(b.runs, off, p)
}

// Resolve materializes the buffer's contents. For a bytes-backed
// buffer the result aliases the backing slice; treat it as read-only.
func (b Buf) Resolve() []byte {
	if b.bytes != nil {
		return b.bytes
	}
	out := make([]byte, b.n)
	resolveRuns(b.runs, out)
	return out
}

// Clone returns a buffer with independent storage: materialized bytes
// are copied, symbolic runs are re-sliced (runs are already immutable).
func (b Buf) Clone() Buf {
	if b.bytes != nil {
		return Buf{n: b.n, bytes: bytes.Clone(b.bytes)}
	}
	return Buf{n: b.n, runs: sliceRuns(b.runs, 0, b.n)}
}

// Equal reports content equality. Two symbolic buffers compare by
// normalized runs first — a provenance match, strictly stricter than
// byte equality — and fall back to resolving both sides, so buffers
// with different provenance but identical bytes still compare equal.
func (b Buf) Equal(o Buf) bool {
	if b.n != o.n {
		return false
	}
	if b.n == 0 {
		return true
	}
	if b.bytes != nil && o.bytes != nil {
		return bytes.Equal(b.bytes, o.bytes)
	}
	if b.bytes == nil && o.bytes == nil && runsEqual(b.runs, o.runs) {
		return true
	}
	return bytes.Equal(b.Resolve(), o.Resolve())
}

// runsEqual compares two normalized run lists extent by extent.
func runsEqual(a, b []Run) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Src != y.Src || x.Len != y.Len {
			return false
		}
		switch x.Src {
		case SrcZero:
		case SrcLiteral:
			if !bytes.Equal(x.lit, y.lit) {
				return false
			}
		default:
			if x.Off != y.Off {
				return false
			}
		}
	}
	return true
}

// DataPlane selects how frame and buffer contents are represented.
// The two implementations are package singletons (Bytes and Symbolic);
// both are comparable values, so a DataPlane field keeps structs like
// core.TestbedConfig usable as map keys.
type DataPlane interface {
	// Name is the flag-level name of the plane.
	Name() string
	// Symbolic reports whether frames carry runs instead of bytes.
	Symbolic() bool
	// NewPayload returns the canonical experiment payload of n bytes
	// (byte i == byte(i)): a materialized pattern fill on the bytes
	// plane, a single fresh pattern run on the symbolic plane.
	NewPayload(n int) Buf

	// materialize installs a frame's initial (zero) contents at its
	// first allocation.
	materialize(f *Frame, pageSize int)
}

type bytesPlane struct{}

func (bytesPlane) Name() string   { return "bytes" }
func (bytesPlane) Symbolic() bool { return false }
func (bytesPlane) NewPayload(n int) Buf {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)
	}
	return BufBytes(p)
}

// materialize leaves a bytes frame without a backing store: it reads as
// zeros until its first write materializes one (Frame.touch).
func (bytesPlane) materialize(*Frame, int) {}

type symbolicPlane struct{}

func (symbolicPlane) Name() string   { return "symbolic" }
func (symbolicPlane) Symbolic() bool { return true }
func (symbolicPlane) NewPayload(n int) Buf {
	return PatternBuf(NewPatternSource(), 0, n)
}
func (symbolicPlane) materialize(f *Frame, pageSize int) {
	f.runs = []Run{{Src: SrcZero, Len: pageSize}}
}

// Bytes is the materialized data plane: frames back onto []byte and
// every transfer moves real bytes. It is the verification oracle the
// symbolic plane is compared against.
var Bytes DataPlane = bytesPlane{}

// Symbolic is the descriptor data plane: frames carry provenance runs
// and transfers splice descriptors.
var Symbolic DataPlane = symbolicPlane{}

// PlaneByName resolves a -dataplane flag value.
func PlaneByName(name string) (DataPlane, error) {
	switch name {
	case "bytes":
		return Bytes, nil
	case "symbolic":
		return Symbolic, nil
	}
	return nil, fmt.Errorf("mem: unknown data plane %q (want bytes or symbolic)", name)
}

// ScatterFrames writes b across the page frames starting at byte
// offset off of the run (frame 0 holds bytes [0, pageSize), frame 1
// the next page, and so on).
func ScatterFrames(frames []*Frame, off int, b Buf) {
	if b.Len() == 0 {
		return
	}
	ps := frames[0].Size()
	pos := 0
	for pos < b.Len() {
		fi := (off + pos) / ps
		po := (off + pos) % ps
		n := min(ps-po, b.Len()-pos)
		frames[fi].WriteBufAt(po, b, pos, n)
		pos += n
	}
}

// ReadFrames resolves len(p) bytes starting at byte offset off of the
// frame run into p, on either plane.
func ReadFrames(frames []*Frame, off int, p []byte) {
	if len(p) == 0 {
		return
	}
	ps := frames[0].Size()
	for pos := 0; pos < len(p); {
		fi := (off + pos) / ps
		po := (off + pos) % ps
		k := min(ps-po, len(p)-pos)
		frames[fi].ReadAt(p[pos:pos+k], po)
		pos += k
	}
}

// GatherFrames reads n bytes starting at byte offset off of the frame
// run into one buffer: a fresh materialized copy on the bytes plane, an
// O(#runs) one-pass gather (AppendFrame) on the symbolic plane.
func GatherFrames(frames []*Frame, off, n int) Buf {
	if n == 0 {
		return Buf{}
	}
	if !frames[0].Symbolic() {
		out := make([]byte, n)
		ReadFrames(frames, off, out)
		return BufBytes(out)
	}
	var out Buf
	out.AppendFrames(frames, off, n)
	return out
}
