package core

import (
	"errors"

	"repro/internal/checksum"
	"repro/internal/mem"
)

// ChecksumMode selects end-to-end checksumming of datagram payloads —
// the Section 9 discussion made concrete. The checksum travels as a
// 2-byte trailer after the payload.
type ChecksumMode int

// Checksum modes.
const (
	// ChecksumNone disables checksumming (the paper's measured setup;
	// Credit Net AAL5 hardware CRC covered the wire).
	ChecksumNone ChecksumMode = iota
	// ChecksumSeparate verifies with a read-only pass distinct from data
	// passing: with copy semantics, the system buffer is verified before
	// the copyout; with emulated copy, the aligned system buffer is
	// verified before pages are swapped. A failed checksum leaves the
	// application buffer untouched — copy semantics is preserved.
	ChecksumSeparate
	// ChecksumIntegrated folds verification into the copy to the
	// application buffer (integrated layer processing). Cheaper than
	// copy-then-verify, but a failed checksum has already overwritten
	// the application buffer: the semantics silently becomes weak.
	// Emulated copy has no copy to integrate into and falls back to the
	// separate pass.
	ChecksumIntegrated
)

var checksumModeNames = [...]string{"none", "separate", "integrated"}

func (m ChecksumMode) String() string {
	if int(m) < len(checksumModeNames) {
		return checksumModeNames[m]
	}
	return "ChecksumMode?"
}

// Checksum errors.
var (
	// ErrChecksum reports a failed payload verification. For
	// ChecksumIntegrated with copy semantics the application buffer
	// already holds the faulty data when this is returned.
	ErrChecksum = errors.New("core: checksum verification failed")
	// ErrChecksumUnsupported: checksum modes are implemented for copy
	// and emulated copy semantics over early-demultiplexed devices —
	// exactly the data paths the paper's integration discussion is
	// about. In-place input is inherently weak under checksumming
	// (the device writes application memory before verification can
	// run), so the combination is refused rather than silently downgraded.
	ErrChecksumUnsupported = errors.New("core: checksum mode unsupported for this semantics/device")
)

const checksumTrailerLen = 2

// trailerLen returns the extra buffer bytes needed for the checksum
// trailer under the active mode for this semantics (0 when off).
func (g *Genie) trailerLen(sem Semantics) int {
	if ok, _ := checksumApplies(g.cfg, sem, g.nic.Buffering()); ok {
		return checksumTrailerLen
	}
	return 0
}

// appendTrailer attaches the payload checksum as a big-endian trailer.
// Checksumming is an inherently content-touching operation, so the
// payload is materialized here even on the symbolic plane (the model
// charges a per-byte checksum pass for it anyway); the trailer itself
// is appended as a 2-byte literal without disturbing the payload runs.
func appendTrailer(payload mem.Buf) mem.Buf {
	sum := checksum.Sum(payload.Resolve())
	return payload.Append(mem.BufBytes([]byte{byte(sum >> 8), byte(sum)}))
}

// splitTrailer separates payload and checksum.
func splitTrailer(data []byte) (payload []byte, sum uint16) {
	n := len(data) - checksumTrailerLen
	return data[:n], uint16(data[n])<<8 | uint16(data[n+1])
}

// verifyStaged is the one checksum-verify step of checksummed dispose
// (early demultiplexing): the staged payload is read with its trailer
// and verified before any data passing — under ChecksumSeparate, and
// always for emulated copy, which has no copy to integrate into — or,
// for copy semantics under ChecksumIntegrated, during the copyout.
// Copy semantics delivers the payload here. A failed verification
// returns ErrChecksum.
func (g *Genie) verifyStaged(in *InputOp, b *kernelBuffer) error {
	raw := make([]byte, in.N+checksumTrailerLen)
	b.readAll(raw)
	data, sum := splitTrailer(raw)
	if in.Sem == Copy && g.cfg.Checksum == ChecksumIntegrated {
		// One pass: the copy happens regardless of the outcome. On
		// failure the application buffer holds the faulty data — the
		// semantic weakening the paper warns about, observable here.
		if err := in.proc.as.Poke(in.va, data); err != nil {
			return err
		}
		if !checksum.Verify(data, sum) {
			return ErrChecksum
		}
		return nil
	}
	// Verify in the system buffer first; only good data reaches the
	// application.
	if !checksum.Verify(data, sum) {
		return ErrChecksum
	}
	if in.Sem != Copy {
		return nil
	}
	return in.proc.as.Poke(in.va, data)
}
