package wifi

import "sledzig/internal/bits"

// Generator polynomials of the 802.11 rate-1/2 mother code (constraint
// length 7): g0 = 133 octal, g1 = 171 octal. The masks are expressed with
// the coefficient of x_{n-i} at bit position i, so that pushing the newest
// input bit into bit 0 of a shift register lets the coded bits be computed
// as GF(2) dot products.
const (
	ConstraintLength = 7
	// G0Mask has taps at delays {0, 2, 3, 5, 6}.
	G0Mask uint32 = 0x6D
	// G1Mask has taps at delays {0, 1, 2, 3, 6}.
	G1Mask uint32 = 0x4F
)

// EncodeStep computes the coded pair (y0, y1) for a 7-bit window
// [x_n, x_{n-1}, ..., x_{n-6}] packed with x_n at bit 0. It is the
// primitive the SledZig extra-bit solver inverts.
func EncodeStep(window uint32) (y0, y1 bits.Bit) {
	return bits.DotGF2(G0Mask, window), bits.DotGF2(G1Mask, window)
}

// encodeTable holds EncodeStep's pair for every window, y0<<1 | y1.
var encodeTable = func() (t [1 << ConstraintLength]uint8) {
	for w := range t {
		y0, y1 := EncodeStep(uint32(w))
		t[w] = y0<<1 | y1
	}
	return t
}()

// ConvolutionalEncode runs the rate-1/2 mother code over in (register
// initialized to zero) and returns the 2*len(in) coded bits, ordered
// y1, y2, ... with y_{2n-1} = g0 output and y_{2n} = g1 output of step n.
func ConvolutionalEncode(in []bits.Bit) []bits.Bit {
	return convolutionalEncodeInto(nil, in)
}

// convolutionalEncodeInto is ConvolutionalEncode writing into dst's
// capacity; it returns dst resized to 2*len(in).
func convolutionalEncodeInto(dst, in []bits.Bit) []bits.Bit {
	dst = grow(dst, 2*len(in))
	var reg uint32
	for i, x := range in {
		reg = ((reg << 1) | uint32(x&1)) & 0x7F
		dst[2*i], dst[2*i+1] = EncodeStep(reg)
	}
	return dst
}

// puncturePatterns holds each rate's keep-mask over one puncturing period
// of mother-coded bits; rate 1/2 keeps everything.
var puncturePatterns = [Rate56 + 1][]bool{
	Rate12: {true, true},
	Rate23: {true, true, true, false},
	Rate34: {true, true, true, false, false, true},
	Rate56: {true, true, true, false, false, true, true, false, false, true},
}

// BuildCodedSlots fills dst, one OFDM symbol's N_CBPS entries, with the
// placement table of a rate-r code: dst[j] is the index, within the
// symbol's 2·N_DBPS-bit block of rate-1/2 mother code, of the j-th
// interleaved coded bit (the order the mapper consumes them).
// deinterleave maps that position to its index in the symbol's punctured
// stream, and r must be a valid rate. The composition assumes what every
// supported mode satisfies: N_CBPS is a whole number of puncturing
// periods, so each symbol's mother block starts on a period boundary.
func BuildCodedSlots(dst []uint16, r CodeRate, deinterleave func(j int) int) {
	pat := puncturePatterns[r]
	var kept [10]int // kept slots of one period (rate 5/6 keeps 6 of 10)
	n := 0
	for i, keep := range pat {
		if keep {
			kept[n] = i
			n++
		}
	}
	for j := range dst {
		k := deinterleave(j)
		dst[j] = uint16(k/n*len(pat) + kept[k%n])
	}
}
