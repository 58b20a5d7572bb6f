package wifi

import (
	"testing"

	"sledzig/internal/bits"
)

func FuzzParseSignalField(f *testing.F) {
	good, _ := SignalField(Mode{QAM16, Rate12}, 100)
	f.Add([]byte(good[:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != 24 {
			return
		}
		for i := range data {
			data[i] &= 1
		}
		mode, length, err := ParseSignalField(data)
		if err == nil {
			if !mode.Modulation.Valid() || !mode.CodeRate.Valid() || length < 1 {
				t.Fatalf("parse accepted invalid SIGNAL: %v %d", mode, length)
			}
		}
	})
}

// FuzzViterbiDecode checks the hard decoder against the seed decoder on
// arbitrary signed mother streams, terminated and untailed: every byte is
// a valid input, its sign the received bit (negative is 1) and 0 an
// erasure.
func FuzzViterbiDecode(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 0})
	f.Add([]byte{0x80, 0, 0x7F, 0xFF, 0, 0x80, 1, 0xFE, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		mother := make([]int8, len(data))
		coded := make([]bits.Bit, len(data))
		erased := make([]bool, len(data))
		for i, b := range data {
			mother[i] = int8(b)
			if mother[i] < 0 {
				coded[i] = 1
			}
			erased[i] = mother[i] == 0
		}
		for _, terminated := range []bool{false, true} {
			got, err := ViterbiDecodeInto(nil, mother, terminated)
			want, wantErr := refViterbiDecode(coded, erased, terminated)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("terminated=%v: error %v, seed decoder %v", terminated, err, wantErr)
			}
			if !bits.Equal(got, want) {
				t.Fatalf("terminated=%v: decoders disagree on %v", terminated, mother)
			}
		}
	})
}
