// Package checksum implements the Internet ones-complement checksum
// (RFC 1071). Its integration with data movement is the subject of the
// paper's Section 9 discussion of Clark & Tennenhouse-style integrated
// layer processing: whether the TCP checksum should be folded into the
// copy between system and application buffers, and what that does to
// buffering semantics.
//
// Two facts drive Genie's position. The simulator charges both through
// its cost model, and core's receive path verifies with this package:
//
//   - With VM-based data passing there is no copy to fold the checksum
//     into; a separate read-only verification pass over swapped-in pages
//     is still cheaper than a combined read-and-write pass (the paper's
//     cost argument, reproduced in the checksum ablation).
//
//   - Folding verification into the copy to the application buffer makes
//     a failed checksum overwrite the buffer with faulty data, silently
//     degrading copy semantics to weak semantics. Page swapping can do
//     better: verify after swapping and swap back on failure, restoring
//     the buffer exactly.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Sum returns the Internet checksum of data: the 16-bit ones-complement
// of the ones-complement sum of the data taken as big-endian 16-bit
// words, padded with a zero byte if odd.
func Sum(data []byte) uint16 {
	return Fold(Accumulate(0, data))
}

// Accumulate adds data into a running 32-bit ones-complement
// accumulator, allowing incremental checksumming of scattered buffers.
// Each call must start at an even byte offset of the overall message.
//
// The sum runs in the machine-friendly byte order instead of the wire
// order, which RFC 1071 section 2(B) allows: byte-swapping every 16-bit
// word byte-swaps their ones-complement sum, so the data is summed as
// little-endian words and the folded result swapped back once. The
// words are 32 bits wide, because 2^16 is 1 modulo 0xffff, and go into
// four independent 64-bit lanes, 32 bytes per step, which no plausible
// length can overflow and which need no carry chain. The result is
// folded to 16 bits, which leaves headroom for any number of further
// calls; it is zero only when acc and every word are zero, so Fold
// still tells +0 (no data) from -0.
func Accumulate(acc uint32, data []byte) uint32 {
	// acc is two wire-order 16-bit words; swap each into the sum.
	s0 := uint64(bits.ReverseBytes16(uint16(acc))) + uint64(bits.ReverseBytes16(uint16(acc>>16)))
	var s1, s2, s3 uint64
	for len(data) >= 32 {
		d := data[:32:32]
		s0 += uint64(binary.LittleEndian.Uint32(d[0:])) + uint64(binary.LittleEndian.Uint32(d[16:]))
		s1 += uint64(binary.LittleEndian.Uint32(d[4:])) + uint64(binary.LittleEndian.Uint32(d[20:]))
		s2 += uint64(binary.LittleEndian.Uint32(d[8:])) + uint64(binary.LittleEndian.Uint32(d[24:]))
		s3 += uint64(binary.LittleEndian.Uint32(d[12:])) + uint64(binary.LittleEndian.Uint32(d[28:]))
		data = data[32:]
	}
	for len(data) >= 8 {
		w := binary.LittleEndian.Uint64(data)
		s1 += w & 0xffffffff
		s2 += w >> 32
		data = data[8:]
	}
	if len(data) >= 4 {
		s3 += uint64(binary.LittleEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		s0 += uint64(binary.LittleEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) > 0 {
		s1 += uint64(data[0]) // an odd tail byte is the high byte of a zero-padded word
	}
	sum := s0 + s1 + s2 + s3
	sum = sum>>32 + sum&0xffffffff
	for sum>>16 != 0 {
		sum = sum>>16 + sum&0xffff
	}
	return uint32(bits.ReverseBytes16(uint16(sum)))
}

// Fold reduces the accumulator to the final 16-bit checksum.
func Fold(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return ^uint16(acc)
}

// Verify reports whether data matches the given checksum.
func Verify(data []byte, sum uint16) bool {
	return Sum(data) == sum
}
