// Package bits provides bit-level utilities shared by the WiFi and ZigBee
// baseband implementations: bit-slice conversion, GF(2) arithmetic, and
// deterministic pseudo-random data generation.
//
// Throughout the repository a "bit" is a byte holding 0 or 1. This is the
// natural representation for coding-theory pipelines (scramblers,
// convolutional coders, interleavers) where bits are permuted and combined
// individually. Packing, in ToBytes order, is used at the byte-oriented
// boundaries and for streams a value keeps rather than works on: a
// wifi.Frame holds its encoder input eight bits to an octet.
package bits

import (
	"fmt"
	mbits "math/bits"
	"math/rand"
)

// Bit is a single binary digit stored in a byte (0 or 1).
type Bit = byte

// FromBytes expands a byte slice into bits, LSB first within each byte,
// matching the 802.11 convention that the first transmitted bit of an octet
// is its least-significant bit.
func FromBytes(data []byte) []Bit {
	out := make([]Bit, 0, len(data)*8)
	for _, b := range data {
		for i := 0; i < 8; i++ {
			out = append(out, (b>>i)&1)
		}
	}
	return out
}

// ToBytes packs bits into bytes, LSB first within each byte (the inverse of
// FromBytes). It returns an error if len(b) is not a multiple of eight or if
// any element is not 0 or 1.
func ToBytes(b []Bit) ([]byte, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("bits: length %d is not a multiple of 8", len(b))
	}
	out := make([]byte, len(b)/8)
	for i, bit := range b {
		switch bit {
		case 0:
		case 1:
			out[i/8] |= 1 << (i % 8)
		default:
			return nil, fmt.Errorf("bits: element %d has non-binary value %d", i, bit)
		}
	}
	return out, nil
}

// ToBytesInto packs bits into dst, LSB first within each byte (ToBytes
// without the allocation). dst must hold exactly len(b)/8 bytes.
func ToBytesInto(dst []byte, b []Bit) error {
	if len(b)%8 != 0 {
		return fmt.Errorf("bits: length %d is not a multiple of 8", len(b))
	}
	if len(dst) != len(b)/8 {
		return fmt.Errorf("bits: destination of %d bytes does not fit %d bits", len(dst), len(b))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, bit := range b {
		switch bit {
		case 0:
		case 1:
			dst[i/8] |= 1 << (i % 8)
		default:
			return fmt.Errorf("bits: element %d has non-binary value %d", i, bit)
		}
	}
	return nil
}

// FromUint extracts the n low-order bits of v, MSB first. This matches the
// 802.11 SIGNAL-field and chip-sequence tabulations, which write bit strings
// most-significant first.
func FromUint(v uint64, n int) []Bit {
	out := make([]Bit, n)
	for i := 0; i < n; i++ {
		out[i] = Bit((v >> (n - 1 - i)) & 1)
	}
	return out
}

// ToUint interprets bits MSB first as an unsigned integer (inverse of
// FromUint). len(b) must be at most 64.
func ToUint(b []Bit) uint64 {
	var v uint64
	for _, bit := range b {
		v = v<<1 | uint64(bit&1)
	}
	return v
}

// Xor returns the element-wise XOR of a and b, which must have equal length.
func Xor(a, b []Bit) []Bit {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bits: Xor length mismatch %d != %d", len(a), len(b)))
	}
	out := make([]Bit, len(a))
	for i := range a {
		out[i] = (a[i] ^ b[i]) & 1
	}
	return out
}

// Parity returns the XOR (mod-2 sum) of all bits in b.
func Parity(b []Bit) Bit {
	var p Bit
	for _, bit := range b {
		p ^= bit & 1
	}
	return p
}

// DotGF2 returns the GF(2) inner product of a polynomial's coefficient mask
// and a register state: the parity of (mask AND state). Both are packed with
// bit i of the mask multiplying bit i of the state.
func DotGF2(mask, state uint32) Bit {
	return Bit(mbits.OnesCount32(mask&state) & 1)
}

// HammingDistance returns the number of positions where a and b differ.
// The slices must have equal length.
func HammingDistance(a, b []Bit) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bits: HammingDistance length mismatch %d != %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i]&1 != b[i]&1 {
			d++
		}
	}
	return d
}

// Equal reports whether a and b contain the same bit values.
func Equal(a, b []Bit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i]&1 != b[i]&1 {
			return false
		}
	}
	return true
}

// Random returns n pseudo-random bits drawn from rng. Callers own the rng so
// experiments stay deterministic under a fixed seed.
func Random(rng *rand.Rand, n int) []Bit {
	out := make([]Bit, n)
	for i := range out {
		out[i] = Bit(rng.Intn(2))
	}
	return out
}

// RandomBytes returns n pseudo-random bytes drawn from rng.
func RandomBytes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(256))
	}
	return out
}

// Clone returns a copy of b. A nil input yields a nil output.
func Clone(b []Bit) []Bit {
	if b == nil {
		return nil
	}
	out := make([]Bit, len(b))
	copy(out, b)
	return out
}

// Validate returns an error if any element of b is not 0 or 1.
func Validate(b []Bit) error {
	for i, bit := range b {
		if bit > 1 {
			return fmt.Errorf("bits: element %d has non-binary value %d", i, bit)
		}
	}
	return nil
}

// String renders bits as a compact "0"/"1" string for diagnostics.
func String(b []Bit) string {
	out := make([]byte, len(b))
	for i, bit := range b {
		out[i] = '0' + (bit & 1)
	}
	return string(out)
}
