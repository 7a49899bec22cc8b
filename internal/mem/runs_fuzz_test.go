package mem

import (
	"bytes"
	"fmt"
	"testing"
)

// Script opcodes of FuzzFrameRuns. Each op is a record of frameOpLen
// bytes: opcode, frame, offset, length, source kind, source argument.
const (
	runOpWrite     = iota // WriteBufAt of a window of a source Buf
	runOpWritePage        // WriteBuf of a whole page
	runOpClear            // ClearRange
	runOpCopy             // CopyFrom another frame (or itself)
	runOpLoad             // LoadBuf
	runOpScatter          // ScatterFrames across all three frames
	runOpGather           // GatherFrames across all three frames
	runOpBuild            // AppendFrame windows of three frames into one Buf
	runOpReadAt           // Frame.ReadAt, and Buf.ReadAt of a window of it
	runOpReadBuf          // ReadBuf
	runOpBorrow           // BorrowBuf
	numRunOps
)

var runOpNames = [numRunOps]string{"write", "write-page", "clear", "copy", "load",
	"scatter", "gather", "build", "readat", "readbuf", "borrow"}

// Source kinds of a Buf a write op stores.
const (
	srcKindZero    = iota // ZeroBuf
	srcKindPattern        // PatternBuf of one of two sources
	srcKindLiteral        // LiteralBuf
	srcKindBytes          // BufBytes, scribbled over after the op
	srcKindMixed          // pattern + literal + zero + pattern, joined by Append
	srcKindHeld           // a Buf an earlier op handed out
	numSrcKinds
)

const (
	frameOpLen   = 6
	runsPageSize = 64
	runsFrames   = 3
	maxHeld      = 24
)

// heldBuf is a Buf a frame op handed out and the bytes it must keep.
type heldBuf struct {
	b    Buf
	want []byte
}

// runScript is the state of one FuzzFrameRuns script: three symbolic
// frames, the plain byte model of their pages, the Bufs handed out so
// far and two pattern sources.
type runScript struct {
	frames []*Frame
	model  [runsFrames][]byte
	held   []heldBuf
	srcs   [2]SourceID
	desc   string // the op being applied
}

// FuzzFrameRuns checks the symbolic plane's run splicing against a
// plain []byte model. A script of fixed-size op records drives three
// 64-byte symbolic frames through whole-page and window writes from
// zero, pattern, literal, bytes, mixed and previously handed-out Bufs,
// ClearRange, CopyFrom, LoadBuf, ScatterFrames, GatherFrames,
// AppendFrame gathers, ReadAt, ReadBuf and BorrowBuf. After every op
// each frame's pages must resolve to the model, each run list must be
// normalized (no empty run, lengths summing to the page size, no two
// neighbours that coalesce) and every Buf handed out so far must still
// resolve to its bytes at hand-out: frames rebuild their run lists in
// place, so a Buf sharing that storage would change under a later
// write. Errors name the op. The seed corpus in testdata/fuzz covers
// each op, splices that spill past the stack array, writes of
// gathered Bufs back into frames and self-copies.
func FuzzFrameRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		pm := NewWithPlane(runsFrames, runsPageSize, Symbolic)
		s := &runScript{srcs: [2]SourceID{NewPatternSource(), NewPatternSource()}}
		for i := range runsFrames {
			fr, err := pm.AllocZeroed()
			if err != nil {
				t.Fatal(err)
			}
			s.frames = append(s.frames, fr)
			s.model[i] = make([]byte, runsPageSize)
		}
		for i := 0; i+frameOpLen <= len(script); i += frameOpLen {
			if err := s.step(script[i : i+frameOpLen]); err != nil {
				t.Fatalf("op %d (%s): %v", i/frameOpLen, s.desc, err)
			}
		}
	})
}

// step applies one op record and checks the state after it. A panic
// becomes the op's error, so every failure names its op.
func (s *runScript) step(rec []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if err := s.apply(rec); err != nil {
		return err
	}
	return s.check()
}

// apply runs one op record, describing it in s.desc first.
func (s *runScript) apply(rec []byte) error {
	op := int(rec[0]) % numRunOps
	fi := int(rec[1]) % runsFrames
	off := int(rec[2]) % runsPageSize
	n := int(rec[3]) % (runsPageSize - off + 1)
	kind, arg := int(rec[4])%numSrcKinds, int(rec[5])
	fr, m := s.frames[fi], s.model[fi]
	s.desc = fmt.Sprintf("%s frame %d off %d n %d", runOpNames[op], fi, off, n)
	switch op {
	case runOpWrite, runOpWritePage, runOpLoad:
		if op != runOpWrite {
			off, n = 0, runsPageSize
		}
		b, bm, boff, scribble := s.source(kind, arg, n, off)
		s.desc = fmt.Sprintf("%s frame %d off %d n %d from %d-byte source kind %d at %d",
			runOpNames[op], fi, off, n, b.Len(), kind, boff)
		switch op {
		case runOpWrite:
			fr.WriteBufAt(off, b, boff, n)
		case runOpWritePage:
			fr.WriteBuf(0, b.Slice(boff, n))
		case runOpLoad:
			fr.LoadBuf(b.Slice(boff, n))
		}
		copy(m[off:off+n], bm[boff:boff+n])
		scribble()
	case runOpClear:
		fr.ClearRange(off, n)
		clear(m[off : off+n])
	case runOpCopy:
		src := int(rec[5]) % runsFrames
		s.desc = fmt.Sprintf("copy frame %d from frame %d", fi, src)
		fr.CopyFrom(s.frames[src])
		copy(m, s.model[src])
	case runOpScatter:
		off, n = s.span(rec)
		b, bm, boff, scribble := s.source(kind, arg, n, off)
		s.desc = fmt.Sprintf("scatter off %d n %d from %d-byte source kind %d at %d", off, n, b.Len(), kind, boff)
		ScatterFrames(s.frames, off, b.Slice(boff, n))
		s.writeSpan(off, bm[boff:boff+n])
		scribble()
	case runOpGather:
		off, n = s.span(rec)
		s.desc = fmt.Sprintf("gather off %d n %d", off, n)
		return s.handOut(GatherFrames(s.frames, off, n), s.readSpan(off, n))
	case runOpBuild:
		var b Buf
		var want []byte
		for k := range 3 {
			j := (fi + k) % runsFrames
			o := int(rec[2+k]) % runsPageSize
			w := int(rec[3+k]) % (runsPageSize - o + 1)
			b.AppendFrame(s.frames[j], o, w)
			want = append(want, s.model[j][o:o+w]...)
		}
		return s.handOut(b, want)
	case runOpReadAt:
		got := make([]byte, n)
		fr.ReadAt(got, off)
		if !bytes.Equal(got, m[off:off+n]) {
			return fmt.Errorf("Frame.ReadAt = %v, want %v", got, m[off:off+n])
		}
		if len(s.held) > 0 {
			h := s.held[arg%len(s.held)]
			o := int(rec[2]) % (h.b.Len() + 1)
			w := int(rec[3]) % (h.b.Len() - o + 1)
			got = make([]byte, w)
			h.b.ReadAt(got, o)
			if !bytes.Equal(got, h.want[o:o+w]) {
				return fmt.Errorf("Buf.ReadAt(%d, %d) of held Buf = %v, want %v", o, w, got, h.want[o:o+w])
			}
		}
	case runOpReadBuf:
		return s.handOut(fr.ReadBuf(off, n), m[off:off+n])
	case runOpBorrow:
		return s.handOut(fr.BorrowBuf(), m)
	}
	return nil
}

// span draws a byte window of the three frames' joined pages.
func (s *runScript) span(rec []byte) (off, n int) {
	const total = runsFrames * runsPageSize
	off = (int(rec[1])*runsPageSize + int(rec[2])) % total
	n = (int(rec[3]) + int(rec[4])<<8) % (total - off + 1)
	return off, n
}

// writeSpan and readSpan apply a frame-spanning window to the model.
func (s *runScript) writeSpan(off int, p []byte) {
	for i, c := range p {
		s.model[(off+i)/runsPageSize][(off+i)%runsPageSize] = c
	}
}

func (s *runScript) readSpan(off, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = s.model[(off+i)/runsPageSize][(off+i)%runsPageSize]
	}
	return p
}

// source builds a Buf with at least n bytes from boff on, to be stored
// at offset dst, the model of all its bytes, and a function to call
// once the op has stored it: a bytes source scribbles over its slice,
// which a frame must have copied. Half the pattern sources map byte dst
// to pattern offset dst, so writes of neighbouring windows coalesce.
func (s *runScript) source(kind, arg, n, dst int) (b Buf, model []byte, boff int, after func()) {
	after = func() {}
	boff = arg % 7
	size := boff + n + arg%5
	if kind == srcKindHeld {
		if len(s.held) == 0 || s.held[arg%len(s.held)].b.Len() < n {
			kind = srcKindPattern
		} else {
			h := s.held[arg%len(s.held)]
			return h.b, h.want, arg % (h.b.Len() - n + 1), after
		}
	}
	model = make([]byte, size)
	switch kind {
	case srcKindZero:
		b = ZeroBuf(size)
	case srcKindPattern:
		src, start := s.srcs[arg&1], arg
		if arg&2 == 0 {
			start = dst - boff + 256
		}
		b = PatternBuf(src, start, size)
		for i := range model {
			model[i] = byte(start + i)
		}
	case srcKindLiteral, srcKindBytes:
		for i := range model {
			model[i] = byte(arg*7 + i*13)
		}
		p := bytes.Clone(model)
		if kind == srcKindLiteral {
			b = LiteralBuf(p)
		} else {
			b = BufBytes(p)
			after = func() { clear(p) }
		}
	case srcKindMixed:
		q := size / 4
		lit := make([]byte, q)
		for i := range lit {
			lit[i] = byte(arg + i)
		}
		b = PatternBuf(s.srcs[0], arg, q).Append(LiteralBuf(lit)).
			Append(ZeroBuf(q)).Append(PatternBuf(s.srcs[0], arg+q, size-3*q))
		for i := range q {
			model[i] = byte(arg + i)
		}
		for i := 3 * q; i < size; i++ {
			model[i] = byte(arg + q + i - 3*q)
		}
		copy(model[q:], lit)
	}
	return b, model, boff, after
}

// handOut checks a Buf an op returned against want and keeps it, with
// a private copy of want, for the snapshot checks of later ops.
func (s *runScript) handOut(b Buf, want []byte) error {
	if got := b.Resolve(); !bytes.Equal(got, want) {
		return fmt.Errorf("returned %v, want %v", got, want)
	}
	if b.Symbolic() {
		if err := checkNormalized(b.runs, b.Len()); err != nil {
			return fmt.Errorf("returned Buf: %v", err)
		}
	}
	h := heldBuf{b: b, want: bytes.Clone(want)}
	if len(s.held) < maxHeld {
		s.held = append(s.held, h)
	} else {
		s.held[len(want)%maxHeld] = h
	}
	return nil
}

// check compares every frame with the model, resolving its run list
// directly rather than through the windowed read paths, checks that
// the run lists are normalized, and checks every held Buf.
func (s *runScript) check() error {
	page := make([]byte, runsPageSize)
	for i, fr := range s.frames {
		if err := checkNormalized(fr.runs, runsPageSize); err != nil {
			return fmt.Errorf("frame %d: %v", i, err)
		}
		resolveRuns(fr.runs, page)
		if !bytes.Equal(page, s.model[i]) {
			return fmt.Errorf("frame %d holds %v, want %v", i, page, s.model[i])
		}
	}
	for i, h := range s.held {
		if err := checkNormalized(h.b.runs, h.b.Len()); err != nil {
			return fmt.Errorf("held Buf %d: %v", i, err)
		}
		if got := h.b.Resolve(); !bytes.Equal(got, h.want) {
			return fmt.Errorf("held Buf %d changed to %v, want %v", i, got, h.want)
		}
	}
	return nil
}

// checkNormalized reports the first way runs is not a normalized run
// list of total bytes.
func checkNormalized(runs []Run, total int) error {
	sum := 0
	for i, r := range runs {
		if r.Len <= 0 {
			return fmt.Errorf("run %d has length %d", i, r.Len)
		}
		if r.Src == SrcLiteral && (r.Off != 0 || len(r.lit) != r.Len) {
			return fmt.Errorf("literal run %d: Off %d, %d bytes for length %d", i, r.Off, len(r.lit), r.Len)
		}
		if i > 0 {
			p := runs[i-1]
			if (p.Src == SrcZero && r.Src == SrcZero) || (p.Src > 0 && p.Src == r.Src && p.Off+p.Len == r.Off) {
				return fmt.Errorf("runs %d and %d (%+v, %+v) should have coalesced", i-1, i, p, r)
			}
		}
		sum += r.Len
	}
	if sum != total {
		return fmt.Errorf("run lengths sum to %d, want %d", sum, total)
	}
	return nil
}
