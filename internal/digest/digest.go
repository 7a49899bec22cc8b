// Package digest provides the determinism fingerprint shared by the
// cluster benchmarks and the closed-loop workload engine. Every
// order-sensitive observation — a delivery record, a stat snapshot, a
// latency sample — is folded into one FNV-64a stream; two runs are
// bit-identical exactly when their digests match. The fold is
// insertion-order sensitive on purpose: callers must feed records in a
// canonical order (round, channel, client index), and any worker-count-
// dependent reordering shows up as a digest mismatch.
package digest

import (
	"fmt"
	"math"
	"strconv"
)

// Digest folds formatted records into an FNV-64a hash and counts how
// many record-sized units were folded (callers decide the unit — the
// cluster bench counts deliveries, the workload engine counts
// completed operations).
type Digest struct {
	h       uint64 // FNV-64a state
	records uint64
	buf     []byte // Addf's formatted record, reused
}

// FNV-64a parameters (hash/fnv).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// New returns an empty digest.
func New() *Digest {
	return &Digest{h: offset64}
}

// Addf folds a formatted record into the hash: exactly the bytes
// fmt.Sprintf(format, args...) makes. Use %x for floats: decimal
// formatting is exact for IEEE doubles only at absurd widths, while the
// hex form is bit-faithful and compact.
//
// The formats records use are formatted here, into a buffer the digest
// reuses: literal text, %% and the verbs %d and %x of an int or a
// uint64 (with strconv), %x of a finite float64 (from its bits) and %s
// of a string. Any
// other format — a flag, a width, another verb, another type (a named
// one included), a NaN or an infinity, too few or too many arguments —
// goes to fmt whole.
func (d *Digest) Addf(format string, args ...any) {
	buf, ok := appendRecord(d.buf[:0], format, args)
	if !ok {
		buf = fmt.Appendf(d.buf[:0], format, args...)
	}
	h := d.h
	for _, c := range buf {
		h = (h ^ uint64(c)) * prime64
	}
	d.h, d.buf = h, buf
}

// appendRecord appends format's expansion to buf when every verb in it
// is one Addf formats itself, and reports whether it was.
func appendRecord(buf []byte, format string, args []any) ([]byte, bool) {
	next := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			buf = append(buf, c)
			continue
		}
		if i++; i == len(format) {
			return buf, false
		}
		verb := format[i]
		if verb == '%' {
			buf = append(buf, '%')
			continue
		}
		if next == len(args) {
			return buf, false
		}
		base := 10
		if verb == 'x' {
			base = 16
		}
		switch a := args[next].(type) {
		case int:
			if verb != 'd' && verb != 'x' {
				return buf, false
			}
			buf = strconv.AppendInt(buf, int64(a), base)
		case uint64:
			if verb != 'd' && verb != 'x' {
				return buf, false
			}
			buf = strconv.AppendUint(buf, a, base)
		case float64:
			if verb != 'x' || math.IsNaN(a) || math.IsInf(a, 0) {
				return buf, false
			}
			buf = appendHexFloat(buf, a)
		case string:
			if verb != 's' {
				return buf, false
			}
			buf = append(buf, a...)
		default:
			return buf, false
		}
		next++
	}
	return buf, next == len(args)
}

// appendHexFloat appends finite f in the %x form, straight from its
// bits: exactly the bytes of strconv.AppendFloat(buf, f, 'x', -1, 64),
// that is -0x1.hhhp±dd with the shortest hex fraction (none for a power
// of two) and at least two exponent digits, and ±0x0p+00 for zero.
// Subnormals are normalized to a leading 1 with the exponent lowered.
func appendHexFloat(buf []byte, f float64) []byte {
	const hexDigits = "0123456789abcdef"
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		buf = append(buf, '-')
	}
	exp := int(bits>>52) & 0x7ff
	mant := bits & (1<<52 - 1)
	switch {
	case exp == 0 && mant == 0:
		return append(buf, "0x0p+00"...)
	case exp == 0: // subnormal: shift the leading 1 up to the implicit bit
		exp = 1
		for mant&(1<<52) == 0 {
			mant <<= 1
			exp--
		}
		mant &= 1<<52 - 1
	}
	exp -= 1023
	buf = append(buf, "0x1"...)
	if mant != 0 {
		buf = append(buf, '.')
		for mant <<= 12; mant != 0; mant <<= 4 { // the fraction's 13 hex digits, top first
			buf = append(buf, hexDigits[mant>>60])
		}
	}
	buf = append(buf, 'p', '+')
	if exp < 0 {
		buf[len(buf)-1] = '-'
		exp = -exp
	}
	if exp < 10 {
		buf = append(buf, '0')
	}
	return strconv.AppendInt(buf, int64(exp), 10)
}

// Record advances the record counter by one.
func (d *Digest) Record() { d.records++ }

// Records returns the number of records folded so far.
func (d *Digest) Records() uint64 { return d.records }

// Sum64 returns the current hash value.
func (d *Digest) Sum64() uint64 { return d.h }

// Hex returns the hash as a fixed-width hex string, the form reports
// and JSON blocks carry.
func (d *Digest) Hex() string { return fmt.Sprintf("%016x", d.h) }

// PayloadSum is the sampling checksum folded per delivered payload: an
// FNV-32a over a fixed sample of byte positions. The sampled set is the
// head (up to 64 bytes), a 101-byte stride through the body, and the
// final byte; each sampled position is mixed exactly once, in ascending
// position order. Full-byte sums would dominate the benchmarks' serial
// app-time section and mask engine self-speedup; the head carries the
// per-message stamp that distinguishes every message anyway, the stride
// catches gross body corruption, and the final byte catches
// truncation-with-padding.
//
// (An earlier version mixed the final byte a second time whenever the
// head or the stride had already covered it, which weakened the
// corruption check: for short payloads a flip of the last byte was
// folded twice, and the sum of a payload could collide with the sum of
// the same bytes sampled through a different overlap. The fold is now
// position-set based, so equal payloads — and only equal sampled
// positions — produce equal sums.)
func PayloadSum(payload []byte) uint32 {
	sum := uint32(2166136261)
	mix := func(b byte) { sum = (sum ^ uint32(b)) * 16777619 }
	n := len(payload)
	head := n
	if head > 64 {
		head = 64
	}
	for _, b := range payload[:head] {
		mix(b)
	}
	strodeLast := false
	for i := head; i < n; i += 101 {
		mix(payload[i])
		strodeLast = i == n-1
	}
	// The final byte, unless the head loop (n <= head) or the stride
	// already mixed it.
	if n > head && !strodeLast {
		mix(payload[n-1])
	}
	return sum
}
