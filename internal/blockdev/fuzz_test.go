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
// it with its resolved bytes and, for materialized bytes, its storage:
// store when it is n bytes long (storage the writer got back from the
// device), a new slice otherwise.
func (r *scriptReader) payload(n int, store []byte) (b mem.Buf, want, src []byte) {
	kind, seed := r.next()%4, r.next()
	want = make([]byte, n)
	for i := range want {
		want[i] = byte(seed + i*seed/7 + i)
	}
	switch kind {
	case 0:
		src = bytes.Clone(want)
		if len(store) == n {
			src = store
			copy(src, want)
		}
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
// still show: views stay valid until their block is next shared, loaded
// or reset.
type held struct {
	view mem.Buf
	want []byte
}

// FuzzDeviceScript runs decoded scripts of Load, Share (of a whole block
// or of a wrong length), Unshare, ReadBlocks, Peek and Reset against a
// naive map[int][]byte model of the media, with a writer that follows
// the sharing contract: it leaves a shared page alone until Unshare, a
// Load or a Reset ends the share, and then scribbles on every store it
// gets back. After every step every block must read as the model, and
// every request outside the device must return an error (never panic),
// so the device never keeps a store it handed back, never hands out a
// store it still reads, and never writes through a Load alias.
func FuzzDeviceScript(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0, 9, 3, 3, 2, 0})
	f.Add([]byte{0, 5, 64, 0, 7, 2, 5, 1, 1, 2, 9, 4, 5})
	f.Add([]byte{1, 2, 1, 0, 3, 2, 2, 0, 1, 2, 1, 0, 8, 2, 2, 0, 5, 0, 0, 1, 2, 1, 0, 4, 2, 2, 0})
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
		shared := map[int][]byte{} // the page each block shares, left alone until the share ends
		var spares [][]byte        // block-sized storage the writer got back
		giveBack := func(p []byte) {
			if len(p) != fuzzBS {
				return // a refused page of another length is the writer's garbage
			}
			for i := range p {
				p[i] ^= 0x5a
			}
			spares = append(spares, p)
		}
		spare := func() []byte {
			if len(spares) == 0 {
				return nil
			}
			p := spares[len(spares)-1]
			spares = spares[:len(spares)-1]
			return p
		}
		endShare := func(b int) {
			if p, ok := shared[b]; ok {
				delete(shared, b)
				giveBack(p)
			}
		}
		r := &scriptReader{p: script}
		for step := 0; len(r.p) > 0 && step < 64; step++ {
			op, block, count := r.next()%6, r.next()%(fuzzBlocks+8)-4, r.next()%4
			switch op {
			case 0: // Load: short content pads, long content clips
				n := fuzzBS - 8 + r.next()%17
				b, want, src := r.payload(n, nil)
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
				delete(views, block)
				endShare(block)
				if src != nil {
					loaded = append(loaded, alias{src, bytes.Clone(src)})
				}
			case 1: // Share: one whole block, or a length the device refuses
				n := fuzzBS
				if count != 1 {
					n = count*fuzzBS + r.next()%3 - 1
				}
				b, want, src := r.payload(max(n, 0), spare())
				_, err := d.Share(block, b)
				if ok := inRange(block, 1) && n == fuzzBS; ok != (err == nil) {
					t.Fatalf("step %d: Share(%d, %d bytes) err %v", step, block, n, err)
				}
				if err != nil {
					if src != nil {
						giveBack(src)
					}
					break
				}
				ref[block] = want
				delete(views, block)
				endShare(block)
				if src != nil {
					shared[block] = src
				}
			case 2: // Unshare the block's page, or a page it does not share
				page, ok := shared[block]
				if !ok {
					if page = spare(); page == nil {
						page = make([]byte, fuzzBS)
					}
				}
				got := d.Unshare(block, page)
				if !ok && (got == nil || &got[0] != &page[0]) {
					t.Fatalf("step %d: Unshare(%d) took a page the block does not share", step, block)
				}
				if ok {
					delete(shared, block) // the block keeps the page
					if got != nil && &got[0] == &page[0] {
						t.Fatalf("step %d: Unshare(%d) handed back the page the block shares", step, block)
					}
				}
				if got != nil {
					giveBack(got)
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
				clear(views)
				for b := range shared {
					endShare(b)
				}
			}
			for b := range fuzzBlocks {
				if !bytes.Equal(d.Peek(b).Resolve(), read(b)) {
					t.Fatalf("step %d: media of block %d differs from the model", step, b)
				}
			}
			for b, h := range views {
				if !bytes.Equal(h.view.Resolve(), h.want) {
					t.Fatalf("step %d: borrowed view of block %d changed before the block was shared, loaded or reset", step, b)
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
