package digest

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// TestAddfFloatHexBitFaithful: the package doc tells callers to fold
// floats with %x because the hex form is bit-faithful. Verify that two
// floats with distinct bit patterns but close decimal renderings fold
// to different digests, and that equal bit patterns fold identically.
func TestAddfFloatHexBitFaithful(t *testing.T) {
	a, b := New(), New()
	tenth, fifth := 0.1, 0.2
	v := tenth + fifth // runtime sum: 0.30000000000000004, distinct bits from 0.3
	a.Addf("lat=%x\n", v)
	b.Addf("lat=%x\n", 0.3)
	if a.Sum64() == b.Sum64() {
		t.Fatalf("digests collide for bit-distinct floats %v and %v", v, 0.3)
	}
	c := New()
	c.Addf("lat=%x\n", tenth+fifth)
	if a.Sum64() != c.Sum64() {
		t.Fatalf("digests differ for bit-identical floats: %s vs %s", a.Hex(), c.Hex())
	}
	// Negative zero and positive zero have distinct IEEE bit patterns;
	// %x must distinguish them where %v-style decimal may not.
	nz, pz := New(), New()
	nz.Addf("%x", math.Copysign(0, -1))
	pz.Addf("%x", 0.0)
	if nz.Sum64() == pz.Sum64() {
		t.Fatalf("digests collide for -0.0 and +0.0")
	}
}

// TestHexFixedWidth: Hex must always render 16 lower-case hex digits,
// zero-padded — reports byte-compare these strings.
func TestHexFixedWidth(t *testing.T) {
	d := New()
	for i := 0; i < 64; i++ {
		if h := d.Hex(); len(h) != 16 {
			t.Fatalf("Hex() width %d, want 16 (%q)", len(h), h)
		} else if h != fmt.Sprintf("%016x", d.Sum64()) {
			t.Fatalf("Hex() %q does not match %%016x of Sum64", h)
		}
		d.Addf("record %d\n", i)
	}
}

// TestRecordCounting: Record advances the counter by exactly one and
// does not perturb the hash.
func TestRecordCounting(t *testing.T) {
	d := New()
	if d.Records() != 0 {
		t.Fatalf("fresh digest has %d records", d.Records())
	}
	before := d.Sum64()
	for i := 1; i <= 5; i++ {
		d.Record()
		if d.Records() != uint64(i) {
			t.Fatalf("after %d Record calls, Records() = %d", i, d.Records())
		}
	}
	if d.Sum64() != before {
		t.Fatalf("Record perturbed the hash")
	}
}

// refPayloadSum is an independent statement of the intended fold: mix
// each position of the sampled set (head ∪ stride ∪ final) exactly
// once, in ascending order.
func refPayloadSum(payload []byte) uint32 {
	n := len(payload)
	sampled := make([]bool, n)
	for i := 0; i < n && i < 64; i++ {
		sampled[i] = true
	}
	head := min(n, 64)
	for i := head; i < n; i += 101 {
		sampled[i] = true
	}
	if n > 0 {
		sampled[n-1] = true
	}
	sum := uint32(2166136261)
	for i, s := range sampled {
		if s {
			sum = (sum ^ uint32(payload[i])) * 16777619
		}
	}
	return sum
}

// TestPayloadSumMatchesReference pins the fold against the independent
// position-set definition across the overlap cases the old code got
// wrong: payloads shorter than the head (final byte inside the head
// loop), payloads where the stride lands exactly on the final byte, and
// everything nearby.
func TestPayloadSumMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 2, 63, 64, 65, 66, 100, 164, 165, 166, 266, 267, 1000, 4096, 65535}
	for _, n := range lengths {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*131 + 7)
		}
		if got, want := PayloadSum(p), refPayloadSum(p); got != want {
			t.Errorf("PayloadSum(len=%d) = %08x, want %08x", n, got, want)
		}
	}
}

// TestPayloadSumCorruptionDetection: flipping any sampled byte must
// change the sum; flipping an unsampled body byte must not (it is a
// sampling checksum by design).
func TestPayloadSumCorruptionDetection(t *testing.T) {
	for _, n := range []int{1, 5, 64, 65, 165, 166, 400} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i * 31)
		}
		base := PayloadSum(p)
		head := min(n, 64)
		sampled := func(i int) bool {
			if i < head || i == n-1 {
				return true
			}
			return i >= head && (i-head)%101 == 0
		}
		for i := 0; i < n; i++ {
			p[i] ^= 0xff
			changed := PayloadSum(p) != base
			p[i] ^= 0xff
			if sampled(i) && !changed {
				t.Errorf("len=%d: flip of sampled byte %d not detected", n, i)
			}
			if !sampled(i) && changed {
				t.Errorf("len=%d: flip of unsampled byte %d changed the sum", n, i)
			}
		}
	}
}

// TestPayloadSumFinalByteSingleMix is the regression for the original
// double-mix: with the final byte folded exactly once, a 1-byte payload
// must equal the FNV-32a of that single byte.
func TestPayloadSumFinalByteSingleMix(t *testing.T) {
	want := uint32(2166136261) ^ uint32(0xab)
	want *= 16777619
	if got := PayloadSum([]byte{0xab}); got != want {
		t.Fatalf("PayloadSum([1 byte]) = %08x, want single-mix FNV %08x", got, want)
	}
	if got := PayloadSum(nil); got != 2166136261 {
		t.Fatalf("PayloadSum(nil) = %08x, want FNV offset basis", got)
	}
}

// BenchmarkAddf folds the pairwise benchmark's per-point record: three
// floats in hex.
func BenchmarkAddf(b *testing.B) {
	d := New()
	x, y, z := 1234.5678, 0.1, 99.0
	b.ReportAllocs()
	for range b.N {
		d.Addf("%x %x %x\n", x, y, z)
	}
}

// appendHexFloat is byte-exact with strconv's %x form at the values
// whose form has a corner (signed zeros, the subnormal range, powers of
// two, two-, three- and four-digit exponents) and at random finite bit
// patterns.
func TestAppendHexFloatMatchesStrconv(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2, 1024, 0.1, -1.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072e-310,
		0x1p-1022, 0x1.fffffffffffffp-1023, math.MaxFloat64, -math.MaxFloat64,
		1e100, 1e-100, 3.5e-200, 0x1p-1000, 0x1p-999, 0x1p+999, 0x1p+1000, 0x1p-10, 0x1p-9}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 100000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, f)
		}
	}
	for _, f := range vals {
		if got, want := appendHexFloat(nil, f), strconv.AppendFloat(nil, f, 'x', -1, 64); string(got) != string(want) {
			t.Fatalf("appendHexFloat(%v) = %q, strconv has %q", f, got, want)
		}
	}
}
