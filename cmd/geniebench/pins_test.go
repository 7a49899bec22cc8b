package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// stdoutDigest runs the CLI, requires exit 0, and returns the sha256 of
// what it printed on stdout.
func stdoutDigest(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("%q: exit code %d\nstderr:\n%s", args, code, stderr)
	}
	sum := sha256.Sum256([]byte(stdout))
	return hex.EncodeToString(sum[:])
}

// The default sweep's stdout, byte for byte: every figure, table and
// ablation next to the published values.
func TestSweepOutputPinned(t *testing.T) {
	const want = "220be7be273e83cae8be456294d84fa1de2e593077e5b8153a6b043291ba4937"
	if got := stdoutDigest(t, "-parallel", "1"); got != want {
		t.Errorf("geniebench -parallel 1: stdout sha256 %s, pinned %s", got, want)
	}
}

// traceOutputPins holds the sha256 of `geniebench trace` stdout for
// every semantics under every input scheme, named
// "semantics/scheme/bytes": 61440 bytes aligned, and 4097 bytes with
// -devoff 1000 -appoff 1000.
var traceOutputPins = map[string]string{
	"copy/early/61440":                  "8a354f80eca3dbd54daa773a799b8d4509b2b7818f2ab828fc499e36da296e0f",
	"copy/early/4097":                   "0dd628344fa8132969914b3f36bd77f4e22532751ba27e08ee31bd263546e264",
	"copy/pooled/61440":                 "40e79bbcc379c1ac4341bdf0ff4079d40610ac0522eabf016db9164b1aa34576",
	"copy/pooled/4097":                  "30c3f51e37fe11d0c27f8e8b2c252e6979c2842fbd8e82d7c1f422100b3303ed",
	"copy/outboard/61440":               "0723b388101f7709129d0ac78954e8b86e3a453c8d3b62502328a042747a16c8",
	"copy/outboard/4097":                "7c4077435a31ff4fbce636c65ef3c2b4e06787483dce5aa4b638b23d5f8c2504",
	"emulated copy/early/61440":         "50caca9a0151da18805d6fcf5774c303e677777d9c204bd70c06c2eaffc8e1e6",
	"emulated copy/early/4097":          "d05fa9a637f9c5a8865d9987d7339f8cfc10c9aa8f942ff66adc8b2a64e61931",
	"emulated copy/pooled/61440":        "fec61ed13113b0d17826fae98fda8ca13a68c0fc20f1211cc84e754a84415f41",
	"emulated copy/pooled/4097":         "684cee3818e0b7ce3ade4dabd6bf4c6fed37e7b465ce42ed55db8d1e49b8f579",
	"emulated copy/outboard/61440":      "02ab1c5e42f43955bd465ffe43b351b160fc8f81eddfa5ff666513a86cdde4f6",
	"emulated copy/outboard/4097":       "5afcde6db3cb0f9da37af1c362d993dcf0982857d4e66a4dde385f46eb96bb5b",
	"share/early/61440":                 "456eeff34fe7f199e2de1cf2a461419ddc96b65f717b2020712237b6ff10769a",
	"share/early/4097":                  "14f8ffd6baf9ba716c5bd4fe0b2c94fd4163792c236e3f95ce1565c5b80aa606",
	"share/pooled/61440":                "338d4d1459ffe00e46b503509be360c8d620aa4242bb78ced8694f95fa90f22f",
	"share/pooled/4097":                 "c562f68ff0e8330a0cdb3383f45c052f4f33864901c4810433442778788628fe",
	"share/outboard/61440":              "ab2e067a042904e1bd9ec5fcd3f3c8cae4f0031a401708133ec610637afbdf90",
	"share/outboard/4097":               "ec9527b4c1193c8d91eb95d60fe9daf920035a5d04c916f5ca5395f51da14ed2",
	"emulated share/early/61440":        "b1ea8eb7ad71bfe9402920e8e8cf2e7be11b0ad7d66df5cf4214b9e610526451",
	"emulated share/early/4097":         "a46837819c30a282d83426fa7bb7985dde8045caf7b024dfa79639085684b426",
	"emulated share/pooled/61440":       "5d34b888a61b35910f7457faa68d24857bdd8216d98a3604493f1c4c56aa0a6c",
	"emulated share/pooled/4097":        "b87ce97b590ca7c7ee801479073c42e7c1545f69722f310b27802a5de10c1ae7",
	"emulated share/outboard/61440":     "da4412a9a536099b04b01d75b98e86da285fe7e73168e26738cf28791205e53b",
	"emulated share/outboard/4097":      "4f0bf16ea6529d2cdc846ef73fc53503cfb0979579974a1431bd825fd2ac5fba",
	"move/early/61440":                  "95825f6a86a8c8d0a648a6cc45999b31d04a52dfaa5d5fb77fbab171443cc37b",
	"move/early/4097":                   "fa687e653695ad47ada72f3507c1c7a2f7b59651a0c8c8366a5b7401764cdc77",
	"move/pooled/61440":                 "b77f3164ef8d1b43e6880f8df58573b29f2afa683922ae4f278d0e95d5a9e6cd",
	"move/pooled/4097":                  "a12d20b281b0fb4f1a34b3dce586f6d674a8d3ecd3002ef159ab159e596e5b99",
	"move/outboard/61440":               "e353ab7875d4f50164387f937b0d1d125b0a23f895e89f4bef61c14cd6ccec94",
	"move/outboard/4097":                "0ffb78ff5a52fa4e6b6aab92822f63f49d6652e1950e93378c98c4bc53e10702",
	"emulated move/early/61440":         "c47cfd6f42bb51b6e9c14db07f71de71bfdad2bd152b24c1d5a48b997bb6519a",
	"emulated move/early/4097":          "943658b975acf5bdba459eb3282bf403f665b0788b3c7cb2eb6021ff1b554a3c",
	"emulated move/pooled/61440":        "1baf798071fcdb2843ecd9f5299cea1d1978939f7e1533769a5eb3b46e755c04",
	"emulated move/pooled/4097":         "d574d7c08cf7a5631a80ee8b2352794aede8db942f6d1bac72ad17e79d99c1ed",
	"emulated move/outboard/61440":      "dc46b7a692e86435a48bfd54d213d1bb181aae3c62ce9073451645967a9d4447",
	"emulated move/outboard/4097":       "47aa6e8bffe0de36abb30c4b5c3a3b5e05ed4f028f4cef1f51faa2ffb5e2e9ec",
	"weak move/early/61440":             "63ec4ab5fd8ee08565c57374cd55a2cd8c5c1bee80d3ae8ead8e580fff9afc75",
	"weak move/early/4097":              "9e1b9e0e1ee9ca75d34f371d8af73d5db217655936cb1443d0a91b92e61f009a",
	"weak move/pooled/61440":            "7a18d04d4082de717da46f0aec7ad1c511d9284467fe78707595920b12ff1a5e",
	"weak move/pooled/4097":             "5ad91f95aab4014a6aca31537fce55e79af2b0672a014142218c446f36fa6917",
	"weak move/outboard/61440":          "a9f7bd7a57d47f699eee3d6461e0805c50be0d737ca26939f6d058f7371513a5",
	"weak move/outboard/4097":           "0ed8fcaffa3ff7602a34747bbeca458f561411fd393bbd86935e78ac28280329",
	"emulated weak move/early/61440":    "1f4d54777ae78523481a13a25eee4d51223c760e0da7133ce9f42e0a32f045b6",
	"emulated weak move/early/4097":     "14ec2a59a799a004f5a7a3e9f5d6b68b5c273092bbf620a4f0d38f04a1af8078",
	"emulated weak move/pooled/61440":   "6d19a457108a5fe230d6b8f845ba7859f3b386722e78a6e1a4859303e85cc766",
	"emulated weak move/pooled/4097":    "2d34e1550dfc6d12415ab7127cd8060e5875ad4293ad643d031d285070aab575",
	"emulated weak move/outboard/61440": "c5422e709a9254420dca574d47096329eaaac6672633334fbb879dc7b4d8404d",
	"emulated weak move/outboard/4097":  "8a1bf00cfc1e6551cecabd7a9e4190852e174d2f9e1d58d912694152e1131279",
}

// Every event, critical-path span and summary line trace prints, per
// case; a moved pin names its case.
func TestTraceOutputPinned(t *testing.T) {
	n := 0
	for _, sem := range core.AllSemantics() {
		for _, scheme := range []string{"early", "pooled", "outboard"} {
			for _, size := range [][]string{
				{"-bytes", "61440"},
				{"-bytes", "4097", "-devoff", "1000", "-appoff", "1000"},
			} {
				name := fmt.Sprintf("%v/%s/%s", sem, scheme, size[1])
				args := append([]string{"trace", "-sem", sem.String(), "-scheme", scheme}, size...)
				if got, want := stdoutDigest(t, args...), traceOutputPins[name]; got != want {
					t.Errorf("%q: %q, // pinned %q", name, got, want)
				}
				n++
			}
		}
	}
	if n != len(traceOutputPins) {
		t.Errorf("ran %d cases, pinned %d", n, len(traceOutputPins))
	}
}

// The ASCII plots of all five figures, and of Figure 3 alone.
func TestPlotOutputPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"plot"}, "28535de18fe1c2082c0c805995b9218a917d1820f3defd90a7faca26069080aa"},
		{[]string{"plot", "-fig", "3"}, "18e07237c53eccc0c0ff8eb5d7d3e4c96e01f31e28079380f57e6d49706273ce"},
	} {
		if got := stdoutDigest(t, c.args...); got != c.want {
			t.Errorf("%s: stdout sha256 %s, pinned %s", strings.Join(c.args, " "), got, c.want)
		}
	}
}
