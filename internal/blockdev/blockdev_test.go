package blockdev

import (
	"bytes"
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

// Content round-trips through write/read, unwritten blocks read as
// zeros, and short writes zero-pad their block.
func TestContentRoundTrip(t *testing.T) {
	_, d := newDev(t, Model{})
	want := pattern(1, 2*bs)
	if _, err := d.Write(3, mem.BufBytes(want)); err != nil {
		t.Fatal(err)
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
	if _, err := d.Write(5, mem.BufBytes(pattern(2, 100))); err != nil {
		t.Fatal(err)
	}
	short := d.Peek(5).Resolve()
	if !bytes.Equal(short[:100], pattern(2, 100)) || !bytes.Equal(short[100:], make([]byte, bs-100)) {
		t.Fatal("short write not zero-padded")
	}
}

// Sequential requests pay one seek; a discontiguous request pays
// another. Service time follows fixed + per-byte (+ seek).
func TestSeekAccounting(t *testing.T) {
	m := Model{SeekUS: 1000, FixedUS: 100, PerByteUS: 0.01}
	_, d := newDev(t, m)
	w1, err := d.Write(0, mem.ZeroBuf(bs))
	if err != nil {
		t.Fatal(err)
	}
	want1 := 1000 + 100 + 0.01*bs // cold arm: first access seeks
	if w1.Micros() != want1 {
		t.Fatalf("first write wait %v, want %v", w1.Micros(), want1)
	}
	// Contiguous follow-up: no seek, but queued behind the busy arm.
	w2, err := d.Write(1, mem.ZeroBuf(bs))
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
	w1, _ := d.Write(0, mem.ZeroBuf(bs))
	if w1.Micros() != 20 {
		t.Fatalf("w1 = %v", w1)
	}
	eng.Schedule(1000, func() {
		w2, _ := d.Write(1, mem.ZeroBuf(bs))
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
	if _, err := d.Write(-1, mem.ZeroBuf(bs)); err == nil {
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

// Write copies materialized data: changing the source after the call
// leaves the media unchanged.
func TestWriteCopiesSource(t *testing.T) {
	_, d := newDev(t, Model{})
	src := pattern(4, 2*bs)
	want := bytes.Clone(src)
	if _, err := d.Write(7, mem.BufBytes(src)); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] ^= 0xff
	}
	for i := 0; i < 2; i++ {
		if !bytes.Equal(d.Peek(7+i).Resolve(), want[i*bs:(i+1)*bs]) {
			t.Fatalf("block %d changed with the writer's source after Write returned", 7+i)
		}
	}
}

// Load aliases the caller's content, and a later Write to the block
// stores into device-owned media instead of writing through that alias:
// the caller's slice (a harness's file image) stays unchanged.
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
	next := pattern(6, bs)
	if _, err := d.Write(3, mem.BufBytes(next)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, orig) {
		t.Fatal("Write stored through the slice Load aliased")
	}
	if !bytes.Equal(d.Peek(3).Resolve(), next) {
		t.Fatal("written block does not read back the write")
	}
	// Loading again re-aliases the image; the owned storage the write
	// used is not the image.
	if err := d.Load(3, mem.BufBytes(image)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(3, mem.BufBytes(pattern(7, 100))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, orig) {
		t.Fatal("second Write stored through the re-loaded slice")
	}
}

// A Reset device reads zeros at blocks whose storage it kept, and a
// write after Reset reads back exactly, padding included.
func TestResetKeepsStorageReadsZeros(t *testing.T) {
	_, d := newDev(t, Model{})
	if _, err := d.Write(9, mem.BufBytes(pattern(8, bs))); err != nil {
		t.Fatal(err)
	}
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
	if _, err := d.Write(9, mem.BufBytes(pattern(9, 10))); err != nil {
		t.Fatal(err)
	}
	got := d.Peek(9).Resolve()
	if !bytes.Equal(got[:10], pattern(9, 10)) || !bytes.Equal(got[10:], make([]byte, bs-10)) {
		t.Fatal("write into kept storage after Reset reads back wrong")
	}
}

// A partial-block Write zero-pads its block even when the block's
// owned storage holds an earlier full write, on both payload kinds.
func TestPartialWriteZeroPads(t *testing.T) {
	for _, sym := range []bool{false, true} {
		_, d := newDev(t, Model{})
		if _, err := d.Write(2, mem.BufBytes(pattern(10, 2*bs))); err != nil {
			t.Fatal(err)
		}
		short := pattern(11, bs+300)
		data := mem.BufBytes(short)
		if sym {
			data = mem.LiteralBuf(bytes.Clone(short))
		}
		if _, err := d.Write(2, data); err != nil {
			t.Fatal(err)
		}
		got := append(bytes.Clone(d.Peek(2).Resolve()), d.Peek(3).Resolve()...)
		want := append(bytes.Clone(short), make([]byte, bs-300)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("symbolic=%v: partial write over written media not zero-padded", sym)
		}
	}
}
