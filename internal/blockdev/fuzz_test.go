package blockdev

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Script geometry: small blocks keep each step cheap, and block numbers
// decode to [-4, fuzzBlocks+4) so out-of-range requests are common.
const (
	fuzzBS     = 64
	fuzzBlocks = 12
)

// scriptReader hands out script bytes, reading zeros once exhausted.
type scriptReader struct{ p []byte }

func (r *scriptReader) next() int {
	if len(r.p) == 0 {
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return int(b)
}

// payload decodes a payload of n bytes of one of four kinds —
// materialized bytes, a pattern run, a literal run, zeros — and returns
// it with its resolved bytes and, for materialized bytes, the source
// slice (which the script scribbles on after a Write to check the copy).
func (r *scriptReader) payload(n int) (b mem.Buf, want, src []byte) {
	kind, seed := r.next()%4, r.next()
	want = make([]byte, n)
	for i := range want {
		want[i] = byte(seed + i*seed/7 + i)
	}
	switch kind {
	case 0:
		src = bytes.Clone(want)
		return mem.BufBytes(src), want, src
	case 1:
		for i := range want {
			want[i] = byte(seed + i)
		}
		return mem.PatternBuf(mem.NewPatternSource(), seed, n), want, nil
	case 2:
		return mem.LiteralBuf(bytes.Clone(want)), want, nil
	}
	clear(want)
	return mem.ZeroBuf(n), want, nil
}

// held is a borrowed view the script keeps, with the bytes it must
// still show: views stay valid until the next Write to their block.
type held struct {
	view mem.Buf
	want []byte
}

// FuzzDeviceScript runs decoded scripts of Load, full and partial Write,
// ReadBlocks, Peek and Reset against a naive map[int][]byte model of
// the media. Every read must equal the model, every out-of-range
// request must return an error (never panic), a Write's materialized
// source may be overwritten once Write returns, and a Load alias is
// never written through.
func FuzzDeviceScript(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0, 9, 3, 3, 2, 0})
	f.Add([]byte{0, 5, 64, 0, 7, 2, 5, 1, 1, 2, 9, 4, 5})
	f.Fuzz(func(t *testing.T, script []byte) {
		d, err := New(sim.New(), Model{}, fuzzBS, fuzzBlocks)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[int][]byte{}
		read := func(b int) []byte {
			if c, ok := ref[b]; ok {
				return c
			}
			return make([]byte, fuzzBS)
		}
		inRange := func(b, count int) bool { return b >= 0 && count > 0 && b+count <= fuzzBlocks }
		views := map[int]held{}
		type alias struct{ src, want []byte }
		var loaded []alias
		r := &scriptReader{p: script}
		for step := 0; len(r.p) > 0 && step < 64; step++ {
			op, block, count := r.next()%6, r.next()%(fuzzBlocks+8)-4, r.next()%4
			switch op {
			case 0: // Load: short content pads, long content clips
				n := fuzzBS - 8 + r.next()%17
				b, want, src := r.payload(n)
				err := d.Load(block, b)
				if ok := inRange(block, 1); ok != (err == nil) {
					t.Fatalf("step %d: Load(%d) err %v", step, block, err)
				}
				if err != nil {
					break
				}
				c := make([]byte, fuzzBS)
				copy(c, want)
				ref[block] = c
				if src != nil {
					loaded = append(loaded, alias{src, bytes.Clone(src)})
				}
			case 1, 2: // Write, full or with a partial final block
				n := count * fuzzBS
				if op == 2 && n > 0 {
					n -= 1 + r.next()%(fuzzBS-1)
				}
				b, want, src := r.payload(n)
				_, err := d.Write(block, b)
				if ok := inRange(block, count); ok != (err == nil) {
					t.Fatalf("step %d: Write(%d, %d bytes) err %v", step, block, n, err)
				}
				if err != nil {
					break
				}
				for i := 0; i < count; i++ {
					c := make([]byte, fuzzBS)
					copy(c, want[i*fuzzBS:min(n, (i+1)*fuzzBS)])
					ref[block+i] = c
					delete(views, block+i)
				}
				for i := range src {
					src[i] ^= 0x5a
				}
			case 3: // ReadBlocks
				got, _, err := d.ReadBlocks(block, count)
				if ok := inRange(block, count); ok != (err == nil) {
					t.Fatalf("step %d: ReadBlocks(%d, %d) err %v", step, block, count, err)
				}
				if err != nil {
					break
				}
				if len(got) != count {
					t.Fatalf("step %d: ReadBlocks(%d, %d) returned %d blocks", step, block, count, len(got))
				}
				for i, v := range got {
					if want := read(block + i); !bytes.Equal(v.Resolve(), want) {
						t.Fatalf("step %d: ReadBlocks block %d differs from the model", step, block+i)
					}
					views[block+i] = held{v, bytes.Clone(read(block + i))}
				}
			case 4: // Peek: out-of-range blocks read as zeros
				want := make([]byte, fuzzBS)
				if inRange(block, 1) {
					want = read(block)
				}
				if got := d.Peek(block); got.Len() != fuzzBS || !bytes.Equal(got.Resolve(), want) {
					t.Fatalf("step %d: Peek(%d) differs from the model", step, block)
				}
			case 5:
				d.Reset()
				clear(ref)
			}
			for b, h := range views {
				if !bytes.Equal(h.view.Resolve(), h.want) {
					t.Fatalf("step %d: borrowed view of block %d changed without a Write to it", step, b)
				}
			}
			for _, a := range loaded {
				if !bytes.Equal(a.src, a.want) {
					t.Fatalf("step %d: the device wrote through a Load alias", step)
				}
			}
		}
	})
}
