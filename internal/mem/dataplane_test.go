package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyBufOpsMatchShadow grows a population of buffers through
// random constructions, slices, and appends, tracking a materialized
// shadow for each; every buffer must resolve to its shadow and answer
// windowed ReadAt calls identically, whichever representation each
// operation happened to produce.
func TestPropertyBufOpsMatchShadow(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type pair struct {
			b Buf
			s []byte
		}
		pop := []pair{{Buf{}, nil}}
		for op := 0; op < 60; op++ {
			switch rng.Intn(6) {
			case 0: // literal run
				p := make([]byte, rng.Intn(50))
				rng.Read(p)
				pop = append(pop, pair{LiteralBuf(p), p})
			case 1: // zero run
				n := rng.Intn(50)
				pop = append(pop, pair{ZeroBuf(n), make([]byte, n)})
			case 2: // pattern run
				src := NewPatternSource()
				off, n := rng.Intn(100), rng.Intn(50)
				s := make([]byte, n)
				for i := range s {
					s[i] = byte(off + i)
				}
				pop = append(pop, pair{PatternBuf(src, off, n), s})
			case 3: // materialized bytes
				p := make([]byte, rng.Intn(50))
				rng.Read(p)
				pop = append(pop, pair{BufBytes(p), p})
			case 4: // slice a random member
				x := pop[rng.Intn(len(pop))]
				if x.b.Len() == 0 {
					continue
				}
				off := rng.Intn(x.b.Len())
				n := rng.Intn(x.b.Len() - off)
				pop = append(pop, pair{x.b.Slice(off, n), x.s[off : off+n]})
			case 5: // append two random members
				x, y := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
				joined := append(append([]byte(nil), x.s...), y.s...)
				pop = append(pop, pair{x.b.Append(y.b), joined})
			}
		}
		for i, x := range pop {
			if x.b.Len() != len(x.s) {
				t.Logf("seed %d pair %d: Len %d, want %d", seed, i, x.b.Len(), len(x.s))
				return false
			}
			if !bytes.Equal(x.b.Resolve(), x.s) {
				t.Logf("seed %d pair %d: Resolve mismatch", seed, i)
				return false
			}
			if !x.b.Equal(BufBytes(x.s)) {
				t.Logf("seed %d pair %d: Equal(shadow) = false", seed, i)
				return false
			}
			if x.b.Len() > 0 {
				off := rng.Intn(x.b.Len())
				n := rng.Intn(x.b.Len() - off)
				got := make([]byte, n)
				x.b.ReadAt(got, off)
				if !bytes.Equal(got, x.s[off:off+n]) {
					t.Logf("seed %d pair %d: ReadAt(%d,%d) mismatch", seed, i, off, n)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRunCoalescing asserts splices and appends merge adjacent runs:
// contiguous pattern extents and abutting zero runs collapse, so long
// transfers stay O(#distinct sources), not O(#operations).
func TestRunCoalescing(t *testing.T) {
	src := NewPatternSource()
	b := PatternBuf(src, 0, 100).Append(PatternBuf(src, 100, 50))
	if got := len(b.Runs()); got != 1 {
		t.Errorf("contiguous pattern append: %d runs, want 1", got)
	}
	z := ZeroBuf(10).Append(ZeroBuf(20))
	if got := len(z.Runs()); got != 1 {
		t.Errorf("zero append: %d runs, want 1", got)
	}
	// Non-contiguous pattern extents must stay distinct.
	gap := PatternBuf(src, 0, 10).Append(PatternBuf(src, 20, 10))
	if got := len(gap.Runs()); got != 2 {
		t.Errorf("gapped pattern append: %d runs, want 2", got)
	}
}

// TestBufSnapshotIndependence: a Buf read from a symbolic frame is a
// snapshot — later frame writes must not show through, including the
// whole-page writes and zeroing reallocations that reuse the frame's
// run storage. This is the invariant that makes scheduled-delivery
// closures and copy-semantics snapshots safe.
func TestBufSnapshotIndependence(t *testing.T) {
	pm := NewWithPlane(1, 64, Symbolic)
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	src := NewPatternSource()
	f.WriteBuf(0, PatternBuf(src, 0, 32).Append(LiteralBuf(bytes.Repeat([]byte{9}, 32))))
	snaps := []Buf{f.ReadBuf(16, 32), f.ReadBuf(0, 64), f.BorrowBuf(), GatherFrames([]*Frame{f}, 0, 64)}
	var want [][]byte
	for _, b := range snaps {
		want = append(want, append([]byte(nil), b.Resolve()...))
	}
	check := func(after string) {
		t.Helper()
		for i, b := range snaps {
			if !bytes.Equal(b.Resolve(), want[i]) {
				t.Errorf("%s visible through previously taken snapshot %d", after, i)
			}
		}
	}
	f.WriteBuf(0, ZeroBuf(64))
	check("whole-page zero write")
	written := PatternBuf(NewPatternSource(), 5, 16).Append(PatternBuf(src, 40, 48))
	f.WriteBuf(0, written)
	check("whole-page two-run write")
	snaps = append(snaps, written)
	want = append(want, append([]byte(nil), written.Resolve()...))
	f.WriteBuf(0, LiteralBuf(bytes.Repeat([]byte{7}, 64)))
	check("whole-page literal write")
	pm.Release(f)
	if f, err = pm.AllocZeroed(); err != nil {
		t.Fatal(err)
	}
	check("zeroing reallocation")
}

// TestWriteBufClonesLiteralBytes: splicing a bytes-backed Buf into a
// symbolic frame must capture the contents, not alias the caller's
// slice.
func TestWriteBufClonesLiteralBytes(t *testing.T) {
	pm := NewWithPlane(4, 64, Symbolic)
	f, err := pm.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p := []byte{1, 2, 3, 4}
	f.WriteBuf(8, BufBytes(p))
	p[0] = 99
	got := make([]byte, 4)
	f.ReadAt(got, 8)
	if got[0] != 1 {
		t.Errorf("frame contents changed with the caller's slice: got %v", got)
	}
}

// TestScatterGatherAcrossPlanes drives ScatterFrames/GatherFrames over
// page boundaries at unaligned offsets on both planes and checks the
// round trip against the source bytes.
func TestScatterGatherAcrossPlanes(t *testing.T) {
	const ps, frames = 64, 4
	for _, plane := range []DataPlane{Bytes, Symbolic} {
		t.Run(plane.Name(), func(t *testing.T) {
			pm := NewWithPlane(frames, ps, plane)
			fs := make([]*Frame, frames)
			for i := range fs {
				f, err := pm.AllocZeroed()
				if err != nil {
					t.Fatal(err)
				}
				fs[i] = f
			}
			payload := make([]byte, 150) // spans 3 pages from offset 37
			for i := range payload {
				payload[i] = byte(i*7 + 3)
			}
			ScatterFrames(fs, 37, BufBytes(payload))
			got := GatherFrames(fs, 37, len(payload))
			if !bytes.Equal(got.Resolve(), payload) {
				t.Error("scatter/gather round trip corrupted payload")
			}
			// Bytes outside the scatter window stay zero.
			head := GatherFrames(fs, 0, 37)
			if !head.Equal(ZeroBuf(37)) {
				t.Error("scatter disturbed bytes before the window")
			}
		})
	}
}

// TestEqualProvenanceAndFallback: provenance equality is a fast path,
// but distinct provenance with identical bytes must still compare
// equal, and differing bytes must not.
func TestEqualProvenanceAndFallback(t *testing.T) {
	a, b := NewPatternSource(), NewPatternSource()
	if !PatternBuf(a, 5, 20).Equal(PatternBuf(a, 5, 20)) {
		t.Error("identical provenance compared unequal")
	}
	// Different sources, same resolved bytes (byte i == byte(Off+i)).
	if !PatternBuf(a, 5, 20).Equal(PatternBuf(b, 5, 20)) {
		t.Error("same bytes under different sources compared unequal")
	}
	if !PatternBuf(a, 0, 8).Equal(BufBytes([]byte{0, 1, 2, 3, 4, 5, 6, 7})) {
		t.Error("pattern vs materialized pattern compared unequal")
	}
	if PatternBuf(a, 0, 8).Equal(ZeroBuf(8)) {
		t.Error("pattern compared equal to zeros")
	}
	if ZeroBuf(8).Equal(ZeroBuf(9)) {
		t.Error("length mismatch compared equal")
	}
}

// TestPlaneByName covers the -dataplane flag resolution.
func TestPlaneByName(t *testing.T) {
	for name, want := range map[string]DataPlane{"bytes": Bytes, "symbolic": Symbolic} {
		got, err := PlaneByName(name)
		if err != nil || got != want {
			t.Errorf("PlaneByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := PlaneByName("quantum"); err == nil {
		t.Error("PlaneByName accepted an unknown plane")
	}
}

// TestFrameSnapshotLoadRoundTrip: SnapshotBuf/LoadBuf is the pageout
// path; the round trip must preserve contents on both planes, and the
// snapshot must be independent of later frame writes.
func TestFrameSnapshotLoadRoundTrip(t *testing.T) {
	for _, plane := range []DataPlane{Bytes, Symbolic} {
		t.Run(plane.Name(), func(t *testing.T) {
			pm := NewWithPlane(4, 64, plane)
			f, err := pm.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, 64)
			for i := range data {
				data[i] = byte(i ^ 0x5a)
			}
			f.WriteAt(0, data)
			snap := f.SnapshotBuf()
			f.WriteAt(0, make([]byte, 64))
			g, err := pm.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			g.LoadBuf(snap)
			got := make([]byte, 64)
			g.ReadAt(got, 0)
			if !bytes.Equal(got, data) {
				t.Error("snapshot/load round trip corrupted page")
			}
		})
	}
}
