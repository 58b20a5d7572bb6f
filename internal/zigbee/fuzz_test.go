package zigbee

import "testing"

// Fuzz targets guard the parsers against panics on arbitrary input; run
// in seed-corpus mode under go test and expandable with -fuzz.

func FuzzParsePPDU(f *testing.F) {
	good, _ := BuildPPDU([]byte("seed"))
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, SFD, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ParsePPDU(data)
		if err == nil && len(payload) == 0 {
			t.Fatal("accepted PPDU with empty payload")
		}
	})
}

func FuzzDespread(f *testing.F) {
	f.Add([]byte{1, 0, 1})
	f.Fuzz(func(t *testing.T, chips []byte) {
		for i := range chips {
			chips[i] &= 1
		}
		if len(chips)%(2*ChipsPerSymbol) != 0 {
			return
		}
		if _, _, err := Despread(chips); err != nil {
			t.Fatal(err)
		}
	})
}
