package wifi

import "testing"

func FuzzParseSignalField(f *testing.F) {
	good, _ := SignalField(Mode{QAM16, Rate12}, 100)
	f.Add([]byte(good))
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

func FuzzViterbiDecode(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, coded []byte) {
		for i := range coded {
			coded[i] &= 1
		}
		if len(coded)%2 != 0 {
			return
		}
		if _, err := ViterbiDecode(coded, nil, false); err != nil {
			t.Fatal(err)
		}
	})
}
