package checksum

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// TestRFC1071Example checks the worked example from RFC 1071 section 3:
// bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2 (before complement).
func TestRFC1071Example(t *testing.T) {
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	acc := Accumulate(0, data)
	folded := ^Fold(acc) // undo the final complement to expose the sum
	if folded != 0xddf2 {
		t.Fatalf("ones-complement sum = %#x, want 0xddf2", folded)
	}
}

func TestSumKnownValues(t *testing.T) {
	cases := []struct {
		data []byte
		want uint16
	}{
		{[]byte{}, 0xffff},
		{[]byte{0x00, 0x00}, 0xffff},
		{[]byte{0xff, 0xff}, 0x0000},
		{[]byte{0x01}, 0xfeff}, // odd length pads a zero byte
	}
	for _, c := range cases {
		if got := Sum(c.data); got != c.want {
			t.Errorf("Sum(%x) = %#04x, want %#04x", c.data, got, c.want)
		}
	}
}

func TestVerify(t *testing.T) {
	data := []byte("the quick brown fox")
	sum := Sum(data)
	if !Verify(data, sum) {
		t.Fatal("checksum does not verify its own data")
	}
	data[3] ^= 0x40
	if Verify(data, sum) {
		t.Fatal("corrupted data verified")
	}
}

// Property: incremental accumulation over any even split equals the
// whole-message checksum.
func TestPropertyIncremental(t *testing.T) {
	prop := func(data []byte, splitRaw uint16) bool {
		split := int(splitRaw) % (len(data) + 1)
		split &^= 1 // even offset
		acc := Accumulate(0, data[:split])
		acc = Accumulate(acc, data[split:])
		return Fold(acc) == Sum(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption is detected.
func TestPropertySingleByteCorruptionDetected(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, int(n)+2)
		rng.Read(data)
		sum := Sum(data)
		i := rng.Intn(len(data))
		// Flip to a value whose 16-bit word differs (ones-complement sums
		// cannot distinguish 0x00 and 0xff in some positions only when
		// the word value is unchanged, which a XOR never leaves).
		old := data[i]
		data[i] ^= byte(rng.Intn(255) + 1)
		changed := data[i] != old
		return !changed || !Verify(data, sum) ||
			// 0x0000 vs 0xffff word ambiguity is inherent to
			// ones-complement arithmetic; permit it.
			ambiguous(old, data[i])
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// ambiguous reports the known ones-complement blind spot: a word
// changing between +0 (0x0000) and -0 (0xffff) requires both bytes to
// flip, so a single-byte change can only alias when... it cannot; kept
// for documentation and future multi-byte corruption tests.
func ambiguous(a, b byte) bool { return false }

// refSum is the naive reference the fuzz target checks against: the
// ones-complement sum of data's big-endian 16-bit words (an odd tail
// padded with a zero byte) added to acc, the carry folded back after
// every add. It is zero only when acc and every word are.
func refSum(acc uint32, data []byte) uint16 {
	s := acc
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	for i := 0; i < len(data); i += 2 {
		w := uint32(data[i]) << 8
		if i+1 < len(data) {
			w |= uint32(data[i+1])
		}
		s += w
		s = s&0xffff + s>>16
	}
	return uint16(s)
}

// FuzzAccumulate checks Accumulate from a starting accumulator acc,
// Sum, and accumulation split at two even offsets against refSum,
// Accumulate's own result exactly (so +0 and -0 stay apart). The seed
// corpus in testdata/fuzz holds the edge cases: empty and odd-length
// input, all zeros (+0), all 0xff and a nonzero sum congruent to 0 mod
// 0xffff (-0), lengths on either side of the 32-byte step (31 to 33 and
// 63 to 65 bytes, odd tails among them), nonzero accumulators wider
// than 16 bits, and a 60 KB frame.
func FuzzAccumulate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16, acc uint32) {
		if got, want := Accumulate(acc, data), uint32(refSum(acc, data)); got != want {
			t.Fatalf("Accumulate(%#x) = %#04x, reference %#04x", acc, got, want)
		}
		want := ^refSum(0, data)
		if got := Sum(data); got != want {
			t.Fatalf("Sum = %#04x, reference %#04x", got, want)
		}
		a := int(cut1) % (len(data) + 1) &^ 1
		b := int(cut2) % (len(data) + 1) &^ 1
		a, b = min(a, b), max(a, b)
		sum := Accumulate(acc, data[:a])
		sum = Accumulate(sum, data[a:b])
		sum = Accumulate(sum, data[b:])
		if got, want := Fold(sum), ^refSum(acc, data); got != want {
			t.Fatalf("acc %#x split at %d,%d: %#04x, reference %#04x", acc, a, b, got, want)
		}
	})
}

// BenchmarkAccumulate times the kernel on a reliable header (12 bytes),
// a small request frame (44), a 2048-byte payload's frame (2060) and a
// 60 KB frame.
func BenchmarkAccumulate(b *testing.B) {
	for _, n := range []int{12, 44, 2060, 61440} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*7 + 3)
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			var acc uint32
			for b.Loop() {
				acc = Accumulate(acc, data)
			}
			sink = acc
		})
	}
}

var sink uint32

func BenchmarkSum60KB(b *testing.B) {
	data := make([]byte, 61440)
	b.SetBytes(61440)
	for i := 0; i < b.N; i++ {
		Sum(data)
	}
}
