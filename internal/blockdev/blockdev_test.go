package blockdev

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

const bs = 4096

func newDev(t *testing.T, m Model) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.New()
	d, err := New(eng, m, bs, 64)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func pattern(seed, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(seed*37 + i*131)
	}
	return p
}

// Content round-trips through share/read, and unshared and unwritten
// blocks read as zeros.
func TestContentRoundTrip(t *testing.T) {
	_, d := newDev(t, Model{})
	want := pattern(1, 2*bs)
	for i := range 2 {
		if _, err := d.Share(3+i, mem.BufBytes(want[i*bs:(i+1)*bs])); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := d.ReadBlocks(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ReadBlocks(3, 2) returned %d blocks", len(got))
	}
	for i, b := range got {
		if !bytes.Equal(b.Resolve(), want[i*bs:(i+1)*bs]) {
			t.Fatalf("block %d: read-back content differs from written content", 3+i)
		}
	}
	zero, _, err := d.ReadBlocks(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero) != 1 || !bytes.Equal(zero[0].Resolve(), make([]byte, bs)) {
		t.Fatal("unwritten block not zero")
	}
	// Unsharing keeps the bytes: the block now owns the page's storage.
	if spare := d.Unshare(3, want[:bs]); spare != nil {
		t.Fatalf("first Unshare of block 3 returned %d bytes of storage, want none", len(spare))
	}
	if !bytes.Equal(d.Peek(3).Resolve(), pattern(1, bs)) {
		t.Fatal("unshared block does not read back its page")
	}
}

// Sequential requests pay one seek; a discontiguous request pays
// another. Service time follows fixed + per-byte (+ seek).
func TestSeekAccounting(t *testing.T) {
	m := Model{SeekUS: 1000, FixedUS: 100, PerByteUS: 0.01}
	_, d := newDev(t, m)
	w1, err := d.Share(0, mem.ZeroBuf(bs))
	if err != nil {
		t.Fatal(err)
	}
	want1 := 1000 + 100 + 0.01*bs // cold arm: first access seeks
	if w1.Micros() != want1 {
		t.Fatalf("first write wait %v, want %v", w1.Micros(), want1)
	}
	// Contiguous follow-up: no seek, but queued behind the busy arm.
	w2, err := d.Share(1, mem.ZeroBuf(bs))
	if err != nil {
		t.Fatal(err)
	}
	want2 := want1 + 100 + 0.01*bs
	if w2.Micros() != want2 {
		t.Fatalf("contiguous write wait %v, want %v", w2.Micros(), want2)
	}
	// Jump back: seek again.
	if _, _, err := d.ReadBlocks(0, 1); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2", st.Seeks)
	}
	if st.Reads != 1 || st.Writes != 2 || st.BlocksRead != 1 || st.BlocksWritten != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// The arm serializes: a request issued at a later simulated time, after
// the arm went idle, starts from now rather than from busyUntil.
func TestArmIdleGap(t *testing.T) {
	m := Model{SeekUS: 10, FixedUS: 10, PerByteUS: 0}
	eng, d := newDev(t, m)
	w1, _ := d.Share(0, mem.ZeroBuf(bs))
	if w1.Micros() != 20 {
		t.Fatalf("w1 = %v", w1)
	}
	eng.Schedule(1000, func() {
		w2, _ := d.Share(1, mem.ZeroBuf(bs))
		if w2.Micros() != 10 { // idle arm, contiguous: fixed only
			t.Errorf("w2 = %v, want 10", w2)
		}
	})
	eng.Run()
}

// Range validation and Reset behavior.
func TestRangeAndReset(t *testing.T) {
	_, d := newDev(t, Model{})
	if _, _, err := d.ReadBlocks(63, 2); err == nil {
		t.Fatal("overrun read accepted")
	}
	if _, err := d.Share(-1, mem.ZeroBuf(bs)); err == nil {
		t.Fatal("negative block accepted")
	}
	if err := d.Load(2, mem.BufBytes(pattern(3, bs))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadBlocks(2, 1); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if d.Stats() != (Stats{}) {
		t.Fatalf("stats after Reset: %+v", d.Stats())
	}
	if !bytes.Equal(d.Peek(2).Resolve(), make([]byte, bs)) {
		t.Fatal("content survived Reset")
	}
	// Post-Reset service starts with a cold arm, like a fresh device.
	_, w, err := d.ReadBlocks(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := DefaultModel()
	if w.Micros() != fresh.SeekUS+fresh.FixedUS+fresh.PerByteUS*bs {
		t.Fatalf("post-Reset wait %v not cold-arm", w)
	}
}

// The zero Model normalizes to the defaults; a partially set one is
// taken literally.
func TestModelNormalization(t *testing.T) {
	_, d := newDev(t, Model{})
	if d.Model() != DefaultModel() {
		t.Fatalf("zero model normalized to %+v", d.Model())
	}
	_, lit := newDev(t, Model{SeekUS: 5})
	if lit.Model() != (Model{SeekUS: 5}) {
		t.Fatalf("literal model perturbed: %+v", lit.Model())
	}
}

// A model field that is negative, NaN or infinite fails New with an
// error naming the field; zero fields are legal.
func TestNewRejectsBadModel(t *testing.T) {
	for _, tc := range []struct {
		m    Model
		name string
	}{
		{Model{SeekUS: math.NaN()}, "SeekUS"},
		{Model{SeekUS: -5000}, "SeekUS"},
		{Model{FixedUS: math.Inf(1)}, "FixedUS"},
		{Model{FixedUS: -1}, "FixedUS"},
		{Model{PerByteUS: math.Inf(-1)}, "PerByteUS"},
		{Model{SeekUS: 1, PerByteUS: -0.1}, "PerByteUS"},
	} {
		d, err := New(sim.New(), tc.m, bs, 64)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("New(%+v) = %v, %v; want an error naming %s", tc.m, d, err, tc.name)
		}
	}
	for _, m := range []Model{{}, {SeekUS: 0, FixedUS: 0, PerByteUS: 1}, {FixedUS: 3}} {
		if _, err := New(sim.New(), m, bs, 64); err != nil {
			t.Errorf("New(%+v): %v", m, err)
		}
	}
}

// frameTarget is a DMA target over a run of frames whose capacity, n
// bytes, may end mid-frame. A store past the capacity fails the test.
type frameTarget struct {
	t      *testing.T
	frames []*mem.Frame
	n      int
}

func (ft frameTarget) Len() int { return ft.n }

func (ft frameTarget) DMAWrite(off int, b mem.Buf) {
	if off < 0 || off+b.Len() > ft.n {
		ft.t.Fatalf("DMAWrite [%d,+%d) past a %d-byte target", off, b.Len(), ft.n)
	}
	mem.ScatterFrames(ft.frames, off, b)
}

// Read of several blocks into a target that ends mid-block stores
// exactly the target's length, block by block, and both data planes
// leave the same bytes in the target's frames.
func TestReadClipsToTarget(t *testing.T) {
	const blocks, limit = 3, 2*bs + 100
	var frames [2][]*mem.Frame
	for i, plane := range []mem.DataPlane{mem.Bytes, mem.Symbolic} {
		_, d := newDev(t, Model{})
		for b := 0; b < blocks; b++ {
			content := mem.BufBytes(pattern(b+1, bs))
			if plane.Symbolic() {
				content = mem.LiteralBuf(pattern(b+1, bs))
			}
			if err := d.Load(4+b, content); err != nil {
				t.Fatal(err)
			}
		}
		pm := mem.NewWithPlane(blocks+1, bs, plane)
		for range blocks + 1 {
			f, err := pm.AllocZeroed()
			if err != nil {
				t.Fatal(err)
			}
			frames[i] = append(frames[i], f)
		}
		if _, err := d.Read(4, blocks, frameTarget{t, frames[i], limit}); err != nil {
			t.Fatal(err)
		}
		got := mem.GatherFrames(frames[i], 0, (blocks+1)*bs).Resolve()
		want := append(append(pattern(1, bs), pattern(2, bs)...), pattern(3, 100)...)
		if !bytes.Equal(got[:limit], want) {
			t.Fatalf("%s plane: target content differs from the device blocks", plane.Name())
		}
		if !bytes.Equal(got[limit:], make([]byte, len(got)-limit)) {
			t.Fatalf("%s plane: Read stored past the target's end", plane.Name())
		}
		if st := d.Stats(); st.Reads != 1 || st.BlocksRead != blocks {
			t.Fatalf("%s plane: stats %+v, want one request of %d blocks", plane.Name(), st, blocks)
		}
	}
	for j := range frames[0] {
		if !frames[0][j].ReadBuf(0, bs).Equal(frames[1][j].ReadBuf(0, bs)) {
			t.Fatalf("frame %d differs between the bytes and symbolic planes", j)
		}
	}
}

// A shared block never changes when its page is rewritten: the writer
// ends the share first, the block keeps the page's storage, and the
// writer rewrites the storage Unshare handed back. A view of the block
// taken while it was shared stays valid through all of it.
func TestWriteCopiesSource(t *testing.T) {
	_, d := newDev(t, Model{})
	page := pattern(4, bs)
	want := bytes.Clone(page)
	for round := range 3 {
		if _, err := d.Share(7, mem.BufBytes(page)); err != nil {
			t.Fatal(err)
		}
		view := d.Peek(7)
		next := d.Unshare(7, page)
		if next == nil {
			next = make([]byte, bs) // the block had no storage of its own to hand back
		}
		if &next[0] == &page[0] {
			t.Fatalf("round %d: Unshare handed back the page the block shares", round)
		}
		copy(next, page) // a partial rewrite keeps the old bytes ...
		for i := range 100 {
			next[i] ^= 0xff // ... and changes some
		}
		if !bytes.Equal(d.Peek(7).Resolve(), want) || !bytes.Equal(view.Resolve(), want) {
			t.Fatalf("round %d: block 7 changed when its page was rewritten", round)
		}
		page = next
		want = bytes.Clone(page)
	}
}

// Load aliases the caller's content, and neither a share of the block
// nor Unshare writes through that alias or hands it out: the caller's
// slice (a harness's file image) stays unchanged.
func TestWriteNeverWritesThroughLoad(t *testing.T) {
	_, d := newDev(t, Model{})
	image := pattern(5, bs)
	orig := bytes.Clone(image)
	if err := d.Load(3, mem.BufBytes(image)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Peek(3).Resolve(), orig) {
		t.Fatal("loaded block does not read back its content")
	}
	page := pattern(6, bs)
	for round := range 3 {
		if _, err := d.Share(3, mem.BufBytes(page)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Peek(3).Resolve(), page) {
			t.Fatalf("round %d: shared block does not read back its page", round)
		}
		next := d.Unshare(3, page)
		if next == nil {
			next = make([]byte, bs)
		}
		for i := range next {
			next[i] = byte(round) // the writer owns what Unshare returned
		}
		if !bytes.Equal(image, orig) {
			t.Fatalf("round %d: the device handed out or wrote through the slice Load aliased", round)
		}
		// Loading again re-aliases the image and ends nothing the
		// writer holds: the next page is the storage it was handed.
		if err := d.Load(3, mem.BufBytes(image)); err != nil {
			t.Fatal(err)
		}
		page = next
	}
}

// A Reset device reads zeros at blocks whose storage it kept and ends
// every share: Unshare then returns the writer's page unchanged. The
// kept storage comes back at the block's next Unshare.
func TestResetKeepsStorageReadsZeros(t *testing.T) {
	_, d := newDev(t, Model{})
	kept := pattern(8, bs)
	if _, err := d.Share(9, mem.BufBytes(kept)); err != nil {
		t.Fatal(err)
	}
	d.Unshare(9, kept)
	d.Reset()
	if !bytes.Equal(d.Peek(9).Resolve(), make([]byte, bs)) {
		t.Fatal("Reset device reads stale media at a written block")
	}
	blocks, _, err := d.ReadBlocks(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blocks[0].Resolve(), make([]byte, bs)) {
		t.Fatal("Reset device serves stale media")
	}
	page := pattern(9, bs)
	if _, err := d.Share(9, mem.BufBytes(page)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Peek(9).Resolve(), page) {
		t.Fatal("share after Reset reads back wrong")
	}
	d.Reset()
	if got := d.Unshare(9, page); &got[0] != &page[0] {
		t.Fatal("Unshare after Reset took the page: Reset ends every share")
	}
	if _, err := d.Share(9, mem.BufBytes(page)); err != nil {
		t.Fatal(err)
	}
	if got := d.Unshare(9, page); got == nil || &got[0] != &kept[0] {
		t.Fatal("Unshare did not hand back the storage the block kept across Reset")
	}
}

// Share takes exactly one block, on both payload kinds: a shorter or
// longer page fails without a request and leaves the media alone.
func TestShareNeedsWholeBlock(t *testing.T) {
	for _, sym := range []bool{false, true} {
		_, d := newDev(t, Model{})
		if _, err := d.Share(2, mem.BufBytes(pattern(10, bs))); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, bs - 1, bs + 1, 2 * bs} {
			data := mem.BufBytes(pattern(11, n))
			if sym {
				data = mem.LiteralBuf(pattern(11, n))
			}
			if _, err := d.Share(2, data); err == nil {
				t.Fatalf("symbolic=%v: share of %d bytes accepted", sym, n)
			}
		}
		if st := d.Stats(); st.Writes != 1 || st.BlocksWritten != 1 {
			t.Fatalf("symbolic=%v: refused shares counted: %+v", sym, st)
		}
		if !bytes.Equal(d.Peek(2).Resolve(), pattern(10, bs)) {
			t.Fatalf("symbolic=%v: a refused share changed the media", sym)
		}
	}
}
