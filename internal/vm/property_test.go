package vm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropertyPokePeekMatchesShadowModel drives an address space with
// random pokes, peeks, pageouts, and output-protection cycles, checking
// every peek against a flat shadow model of what the application should
// observe.
func TestPropertyPokePeekMatchesShadowModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := newTestSystem(64)
		as := sys.NewAddressSpace()
		const regionPages = 4
		r, err := as.AllocRegion(regionPages*testPageSize, Unmovable)
		if err != nil {
			t.Fatal(err)
		}
		shadow := make([]byte, regionPages*testPageSize)
		daemon := NewPageoutDaemon(sys)
		var pendingOut []*IORef

		for op := 0; op < 200; op++ {
			switch rng.Intn(6) {
			case 0, 1: // poke a random range
				off := rng.Intn(len(shadow))
				n := rng.Intn(len(shadow)-off)/2 + 1
				data := make([]byte, n)
				rng.Read(data)
				if err := as.Poke(r.Start()+Addr(off), data); err != nil {
					t.Logf("seed %d op %d: poke: %v", seed, op, err)
					return false
				}
				copy(shadow[off:], data)
			case 2, 3: // peek a random range and compare
				off := rng.Intn(len(shadow))
				n := rng.Intn(len(shadow)-off)/2 + 1
				got := make([]byte, n)
				if err := as.Peek(r.Start()+Addr(off), got); err != nil {
					t.Logf("seed %d op %d: peek: %v", seed, op, err)
					return false
				}
				if !bytes.Equal(got, shadow[off:off+n]) {
					t.Logf("seed %d op %d: peek mismatch at %d+%d", seed, op, off, n)
					return false
				}
			case 4: // start or finish an output with TCOW protection
				if len(pendingOut) > 0 && rng.Intn(2) == 0 {
					ref := pendingOut[0]
					pendingOut = pendingOut[1:]
					ref.Unreference()
				} else {
					off := rng.Intn(regionPages) * testPageSize
					n := (rng.Intn(regionPages-off/testPageSize) + 1) * testPageSize
					ref := new(IORef)
					if err := as.ReferenceRangeInto(ref, r.Start()+Addr(off), n, false); err != nil {
						t.Logf("seed %d op %d: reference: %v", seed, op, err)
						return false
					}
					as.RemoveWrite(r.Start()+Addr(off), n)
					pendingOut = append(pendingOut, ref)
				}
			case 5: // let the pageout daemon run
				daemon.ScanOnce(rng.Intn(3))
			}
			if err := as.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
			if err := sys.Phys().CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		for _, ref := range pendingOut {
			ref.Unreference()
		}
		got := make([]byte, len(shadow))
		if err := as.Peek(r.Start(), got); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOutputIntegrityUnderOverwrites: for any overwrite pattern
// applied after emulated-copy output prepare, the device always reads the
// data as of output invocation.
func TestPropertyOutputIntegrityUnderOverwrites(t *testing.T) {
	prop := func(seed int64, pages uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(pages%4) + 1
		sys := newTestSystem(64)
		as := sys.NewAddressSpace()
		r, err := as.AllocRegion(n*testPageSize, Unmovable)
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]byte, n*testPageSize)
		rng.Read(orig)
		if err := as.Poke(r.Start(), orig); err != nil {
			return false
		}
		ref := new(IORef)
		if err := as.ReferenceRangeInto(ref, r.Start(), len(orig), false); err != nil {
			return false
		}
		as.RemoveWrite(r.Start(), len(orig))
		// Random overwrites while output is pending.
		for i := 0; i < 10; i++ {
			off := rng.Intn(len(orig))
			m := rng.Intn(len(orig)-off)/4 + 1
			junk := make([]byte, m)
			rng.Read(junk)
			if err := as.Poke(r.Start()+Addr(off), junk); err != nil {
				return false
			}
		}
		out := make([]byte, len(orig))
		ref.DMARead(0, out)
		ref.Unreference()
		return bytes.Equal(out, orig)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyExtentsCoverRange: for any (offset, length) inside a
// region, ReferenceRangeInto produces contiguous extents covering exactly
// the requested bytes.
func TestPropertyExtentsCoverRange(t *testing.T) {
	prop := func(offRaw, lenRaw uint16) bool {
		const pages = 4
		sys := newTestSystem(16)
		as := sys.NewAddressSpace()
		r, err := as.AllocRegion(pages*testPageSize, Unmovable)
		if err != nil {
			t.Fatal(err)
		}
		off := int(offRaw) % (pages * testPageSize)
		length := int(lenRaw)%(pages*testPageSize-off) + 1
		ref := new(IORef)
		if err := as.ReferenceRangeInto(ref, r.Start()+Addr(off), length, true); err != nil {
			return false
		}
		defer ref.Unreference()
		if ref.Len() != length {
			return false
		}
		// First extent starts at the right page offset; extents after the
		// first start at page offset 0; all but the last fill the page.
		ext := ref.Extents()
		if ext[0].Off != (off % testPageSize) {
			return false
		}
		for i, e := range ext {
			if i > 0 && e.Off != 0 {
				return false
			}
			if i < len(ext)-1 && e.Off+e.Len != testPageSize {
				return false
			}
			if e.Len <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPageoutTransparency: paging out any subset of pages is
// invisible to subsequent application reads.
func TestPropertyPageoutTransparency(t *testing.T) {
	prop := func(seed int64, target uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sys := newTestSystem(64)
		as := sys.NewAddressSpace()
		const pages = 6
		r, err := as.AllocRegion(pages*testPageSize, Unmovable)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, pages*testPageSize)
		rng.Read(data)
		if err := as.Poke(r.Start(), data); err != nil {
			return false
		}
		NewPageoutDaemon(sys).ScanOnce(int(target % (pages + 2)))
		got := make([]byte, len(data))
		if err := as.Peek(r.Start(), got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFaultZeroFill(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := newTestSystem(16)
		as := sys.NewAddressSpace()
		r, _ := as.AllocRegion(8*testPageSize, Unmovable)
		for p := 0; p < 8; p++ {
			_ = as.Fault(r.Start()+Addr(p*testPageSize), true)
		}
	}
}

func BenchmarkReferenceUnreference(b *testing.B) {
	sys := newTestSystem(32)
	as := sys.NewAddressSpace()
	r, _ := as.AllocRegion(16*testPageSize, Unmovable)
	_ = as.Poke(r.Start(), make([]byte, 16*testPageSize))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ref := new(IORef)
		if err := as.ReferenceRangeInto(ref, r.Start(), 16*testPageSize, false); err != nil {
			b.Fatal(err)
		}
		ref.Unreference()
	}
}
