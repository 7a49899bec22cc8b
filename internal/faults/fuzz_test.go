package faults

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseSpec checks the fault-spec parser on arbitrary input: it
// never panics, every accepted spec round-trips through String, and
// every error quotes a token of the input — a whole field, its key or
// its value — so a user can see what was rejected. The seed corpus in
// testdata/fuzz/FuzzParseSpec holds both CI chaos specs and the
// malformed cases (empty, bad seed, NaN, out of range, unknown key, no
// '=', empty fields, a duplicated key).
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			if spec != (Spec{}) {
				t.Fatalf("ParseSpec(%q) failed (%v) but returned %+v", in, err, spec)
			}
			if !quotesToken(err.Error(), in) {
				t.Fatalf("ParseSpec(%q) error %q quotes no token of the input", in, err)
			}
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec: %v", in, verr)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, but its String %q does not parse: %v", in, spec, spec.String(), err)
		}
		if again != spec {
			t.Fatalf("ParseSpec(%q) = %+v, round trip through %q gives %+v", in, spec, spec.String(), again)
		}
	})
}

// quotesToken reports whether msg contains, quoted, a comma-separated
// field of in, or the key or value of one, each trimmed of spaces.
func quotesToken(msg, in string) bool {
	for _, field := range strings.Split(in, ",") {
		field = strings.TrimSpace(field)
		k, v, _ := strings.Cut(field, "=")
		for _, tok := range []string{field, strings.TrimSpace(k), strings.TrimSpace(v)} {
			if strings.Contains(msg, strconv.Quote(tok)) {
				return true
			}
		}
	}
	return false
}
