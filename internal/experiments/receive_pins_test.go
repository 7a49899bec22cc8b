package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/digest"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// receiveTraceCase is one pinned receive-side transfer.
type receiveTraceCase struct {
	scheme    netsim.InputBuffering
	sem       core.Semantics
	length    int
	appOffset int
	checksum  core.ChecksumMode
}

func (c receiveTraceCase) name() string {
	return fmt.Sprintf("%v/%v/%dB@%d/%v", c.scheme, c.sem, c.length, c.appOffset, c.checksum)
}

// receiveTraceCases lists every semantics under every input buffering
// scheme at 61440 B aligned and at 4097 B one partial page past an
// unaligned start, plus checksummed early-demultiplexed copy and
// emulated copy at both shapes.
func receiveTraceCases() []receiveTraceCase {
	var cases []receiveTraceCase
	shapes := [][2]int{{61440, 0}, {4097, 1000}}
	for _, scheme := range []netsim.InputBuffering{netsim.EarlyDemux, netsim.Pooled, netsim.OutboardBuffering} {
		for _, sem := range core.AllSemantics() {
			for _, sh := range shapes {
				cases = append(cases, receiveTraceCase{scheme: scheme, sem: sem, length: sh[0], appOffset: sh[1]})
			}
		}
	}
	for _, mode := range []core.ChecksumMode{core.ChecksumSeparate, core.ChecksumIntegrated} {
		for _, sem := range []core.Semantics{core.Copy, core.EmulatedCopy} {
			for _, sh := range shapes {
				cases = append(cases, receiveTraceCase{scheme: netsim.EarlyDemux, sem: sem,
					length: sh[0], appOffset: sh[1], checksum: mode})
			}
		}
	}
	return cases
}

// receiveTraceDigest runs one traced Measure and folds every event —
// host, phase, category, name, stage, bytes and the bit patterns of At
// and Dur — and the measured latency and CPU times into one digest.
func receiveTraceDigest(c receiveTraceCase) (string, error) {
	ring := trace.NewRing(1 << 14)
	s := Setup{Scheme: c.scheme, AppOffset: c.appOffset, Tracer: trace.New(ring)}
	s.Genie = core.DefaultConfig()
	s.Genie.Checksum = c.checksum
	m, err := Measure(s, c.sem, c.length)
	if err != nil {
		return "", err
	}
	if ring.Dropped() != 0 {
		return "", fmt.Errorf("ring dropped %d events", ring.Dropped())
	}
	d := digest.New()
	for _, ev := range ring.Events() {
		d.Addf("%s %v %v %s %s %d %x %x\n", ev.Host, ev.Phase, ev.Cat, ev.Name, ev.Stage, ev.Bytes,
			math.Float64bits(float64(ev.At)), math.Float64bits(float64(ev.Dur)))
		d.Record()
	}
	d.Addf("lat=%x rx=%x tx=%x\n", m.LatencyUS, m.RxCPUUS, m.TxCPUUS)
	return fmt.Sprintf("%s/%d", d.Hex(), d.Records()), nil
}

// receiveTracePins are the committed event-stream digests (hash/event
// count) of receiveTraceCases. A receive-path change that moves a
// charge, a pool release, a VM transition or a DMA relative to the
// others moves a pin.
var receiveTracePins = map[string]string{
	"early-demultiplexed/copy/61440B@0/none":                  "6d06d6bb84d23e55/48",
	"early-demultiplexed/copy/4097B@1000/none":                "49044ff20861ee29/22",
	"early-demultiplexed/emulated copy/61440B@0/none":         "2bd5a8414cfd1696/47",
	"early-demultiplexed/emulated copy/4097B@1000/none":       "741da248d49a973a/25",
	"early-demultiplexed/share/61440B@0/none":                 "c9db71a83efc79e4/52",
	"early-demultiplexed/share/4097B@1000/none":               "25c53396653b355c/26",
	"early-demultiplexed/emulated share/61440B@0/none":        "e41c656877c2fb60/44",
	"early-demultiplexed/emulated share/4097B@1000/none":      "d5e6fe37e6de0b7c/18",
	"early-demultiplexed/move/61440B@0/none":                  "51d39a8a4f2987eb/43",
	"early-demultiplexed/move/4097B@1000/none":                "2642fcb2cfd6ea86/30",
	"early-demultiplexed/emulated move/61440B@0/none":         "48c08b924761ec23/36",
	"early-demultiplexed/emulated move/4097B@1000/none":       "a4662ae97d1722f4/23",
	"early-demultiplexed/weak move/61440B@0/none":             "69017fba2747c1e3/45",
	"early-demultiplexed/weak move/4097B@1000/none":           "8260051e5b66512a/32",
	"early-demultiplexed/emulated weak move/61440B@0/none":    "391cbf73f3fa746e/35",
	"early-demultiplexed/emulated weak move/4097B@1000/none":  "e9bd4b98988f7ccb/22",
	"pooled in-host/copy/61440B@0/none":                       "dbcf3f06c6342218/48",
	"pooled in-host/copy/4097B@1000/none":                     "dcc02a44f39d74cd/22",
	"pooled in-host/emulated copy/61440B@0/none":              "ebf010d8ecd211ae/47",
	"pooled in-host/emulated copy/4097B@1000/none":            "43b63b5914cc8fdd/22",
	"pooled in-host/share/61440B@0/none":                      "86d5a8b93ee4f0aa/71",
	"pooled in-host/share/4097B@1000/none":                    "68284054f4f65100/31",
	"pooled in-host/emulated share/61440B@0/none":             "d683c1ad7200efd0/63",
	"pooled in-host/emulated share/4097B@1000/none":           "50b70a6d7d5f3847/23",
	"pooled in-host/move/61440B@0/none":                       "24bb7e730da541da/44",
	"pooled in-host/move/4097B@1000/none":                     "afac1fd2ba177370/31",
	"pooled in-host/emulated move/61440B@0/none":              "25799aa1354fcf88/57",
	"pooled in-host/emulated move/4097B@1000/none":            "2de6efd8696e9385/31",
	"pooled in-host/weak move/61440B@0/none":                  "7b36e4aacbb4db2d/64",
	"pooled in-host/weak move/4097B@1000/none":                "f3b8f60794e10994/38",
	"pooled in-host/emulated weak move/61440B@0/none":         "799abd1cfc452a0f/56",
	"pooled in-host/emulated weak move/4097B@1000/none":       "6b02b6ca82ae002c/30",
	"outboard/copy/61440B@0/none":                             "7137dc84988a5f3e/50",
	"outboard/copy/4097B@1000/none":                           "cf8fd09456b507bd/24",
	"outboard/emulated copy/61440B@0/none":                    "44e4ea7c4f55b040/48",
	"outboard/emulated copy/4097B@1000/none":                  "f5de664fc72ea18e/22",
	"outboard/share/61440B@0/none":                            "babab4e165811565/55",
	"outboard/share/4097B@1000/none":                          "643aeb1124ff85ac/29",
	"outboard/emulated share/61440B@0/none":                   "a069e4a02bb07995/47",
	"outboard/emulated share/4097B@1000/none":                 "147b496378c268ae/21",
	"outboard/move/61440B@0/none":                             "71e3b601ee71c2bd/46",
	"outboard/move/4097B@1000/none":                           "595d502d689d33d0/33",
	"outboard/emulated move/61440B@0/none":                    "cf49e443a78175ad/39",
	"outboard/emulated move/4097B@1000/none":                  "ee3bb7535009431c/26",
	"outboard/weak move/61440B@0/none":                        "1cdaf9af65eabfb0/48",
	"outboard/weak move/4097B@1000/none":                      "c5d1b415b68e57da/35",
	"outboard/emulated weak move/61440B@0/none":               "e8a4ba1792b85666/38",
	"outboard/emulated weak move/4097B@1000/none":             "346492257d31167e/25",
	"early-demultiplexed/copy/61440B@0/separate":              "779f90d176f004b8/50",
	"early-demultiplexed/copy/4097B@1000/separate":            "dea53ea11155e87b/24",
	"early-demultiplexed/emulated copy/61440B@0/separate":     "4e8db456c3d47bd9/50",
	"early-demultiplexed/emulated copy/4097B@1000/separate":   "b5bda15b321095cd/27",
	"early-demultiplexed/copy/61440B@0/integrated":            "495dee24e3a462c9/48",
	"early-demultiplexed/copy/4097B@1000/integrated":          "d14af8253293df19/22",
	"early-demultiplexed/emulated copy/61440B@0/integrated":   "4e8db456c3d47bd9/50",
	"early-demultiplexed/emulated copy/4097B@1000/integrated": "b5bda15b321095cd/27",
}

// TestReceiveTracesPinned pins the full traced event stream of a
// transfer for every semantics under every input buffering scheme, at
// an aligned page-multiple length and at an unaligned length with a
// partial page, plus checksummed early-demultiplexed copy and emulated
// copy. Charge order is part of the contract: latencies are float64
// sums, so a reordered charge can move a result by an ulp.
func TestReceiveTracesPinned(t *testing.T) {
	withPerfRegime(t, false, func() {
		for _, c := range receiveTraceCases() {
			got, err := receiveTraceDigest(c)
			if err != nil {
				t.Errorf("%s: %v", c.name(), err)
				continue
			}
			if want := receiveTracePins[c.name()]; got != want {
				t.Errorf("%q: %q, // pinned %q", c.name(), got, want)
			}
		}
	})
}
