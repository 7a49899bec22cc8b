package digest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// fuzzTokens are the pieces FuzzAddfMatchesFmt builds formats from:
// literals (one of them multi-byte), the verbs Addf formats itself, and
// formats that must go to fmt whole — flags, widths, other verbs,
// argument indexes and a lone trailing percent sign.
var fuzzTokens = []string{
	"lat=", " ", "\n", "é", "%%",
	"%d", "%x", "%s", "%d", "%x", "%s",
	"%v", "%+v", "%08x", "%5d", "% x", "%#x", "%X", "%q", "%[1]d", "%*d", "%",
}

// namedInt and namedString are types Addf must leave to fmt, like the
// simulator's enums.
type (
	namedInt    int
	namedString string
)

func (n namedInt) String() string { return fmt.Sprintf("n%d", int(n)) }

// fuzzArg returns the argument kind k picks, built from the fuzzed
// values: the types Addf formats itself (ints of both signs, uint64,
// finite floats, ±0, strings) and types or values it must leave to fmt.
func fuzzArg(k byte, i int64, u uint64, f float64, s string) any {
	switch k % 16 {
	case 0, 1:
		return int(i) + int(k)
	case 2:
		return -int(i)
	case 3:
		return u
	case 4, 5:
		return f
	case 6:
		return math.Copysign(0, -1)
	case 7:
		return math.NaN()
	case 8:
		return math.Inf(int(k/16%2)*2 - 1)
	case 9, 10:
		return s
	case 11:
		return namedInt(i)
	case 12:
		return namedString(s)
	case 13:
		return errors.New(s)
	case 14:
		return int32(i)
	default:
		return nil
	}
}

// FuzzAddfMatchesFmt is the differential oracle for Addf's formatting
// fast path: for a format drawn from fuzzTokens and arguments of mixed
// types, too few or too many of them included, the digest must equal
// FNV-64a of fmt.Sprintf's bytes. Each input folds two records into
// one digest, so the reused buffer cannot carry bytes between them.
// The seed corpus in testdata/fuzz covers every record format the
// simulator folds, and NaN, infinities, named types and argument-count
// mismatches.
func FuzzAddfMatchesFmt(f *testing.F) {
	f.Fuzz(func(t *testing.T, format, kinds []byte, i int64, u uint64, fl float64, s string) {
		var fs string
		for _, b := range format {
			fs += fuzzTokens[int(b)%len(fuzzTokens)]
		}
		args := make([]any, len(kinds))
		for j, k := range kinds {
			args[j] = fuzzArg(k, i+int64(j), u, fl, s)
		}
		d, ref := New(), fnv.New64a()
		for _, rec := range []string{fs, s + "%x %d\n"} {
			d.Addf(rec, args...)
			fmt.Fprintf(ref, rec, args...)
			if d.Sum64() != ref.Sum64() {
				t.Fatalf("Addf(%q, %#v) digest %016x, FNV-64a of %q is %016x",
					rec, args, d.Sum64(), fmt.Sprintf(rec, args...), ref.Sum64())
			}
		}
	})
}
