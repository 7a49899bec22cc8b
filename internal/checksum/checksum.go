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
// The sum runs eight bytes at a time: a big-endian 64-bit word is four
// 16-bit words, and because 0xffff divides 2^64-1, a ones-complement
// (end-around carry) sum of 64-bit words is congruent to the 16-bit sum.
// The result is folded to 16 bits, which leaves headroom for any number
// of further calls; it is zero only when acc and every word are zero,
// so Fold still tells +0 (no data) from -0.
func Accumulate(acc uint32, data []byte) uint32 {
	sum := uint64(acc)
	var carry uint64
	i := 0
	for ; i+8 <= len(data); i += 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data[i:]), 0)
		sum += carry
	}
	sum = sum>>32 + sum&0xffffffff // fold to 33 bits: the tail cannot overflow
	for ; i+1 < len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		sum += uint64(data[i]) << 8
	}
	for sum>>16 != 0 {
		sum = sum>>16 + sum&0xffff
	}
	return uint32(sum)
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
