package bits

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromToBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		b := FromBytes(data)
		back, err := ToBytes(b)
		if err != nil {
			return false
		}
		if len(back) != len(data) {
			return false
		}
		for i := range data {
			if back[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromBytesLSBFirst(t *testing.T) {
	got := FromBytes([]byte{0x01, 0x80})
	want := []Bit{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if !Equal(got, want) {
		t.Fatalf("FromBytes = %s, want %s", String(got), String(want))
	}
}

func TestToBytesRejectsBadInput(t *testing.T) {
	if _, err := ToBytes([]Bit{1, 0, 1}); err == nil {
		t.Error("non-octet length accepted")
	}
	if _, err := ToBytes([]Bit{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("non-binary value accepted")
	}
}

func TestFromToUint(t *testing.T) {
	cases := []struct {
		v uint64
		n int
		s string
	}{
		{0b1011, 4, "1011"},
		{0b1, 1, "1"},
		{0b0011, 4, "0011"},
		{0x5D, 7, "1011101"},
	}
	for _, tc := range cases {
		got := FromUint(tc.v, tc.n)
		if String(got) != tc.s {
			t.Errorf("FromUint(%#b, %d) = %s, want %s", tc.v, tc.n, String(got), tc.s)
		}
		if back := ToUint(got); back != tc.v {
			t.Errorf("ToUint(%s) = %d, want %d", tc.s, back, tc.v)
		}
	}
}

func TestXorParity(t *testing.T) {
	a := []Bit{1, 0, 1, 1}
	b := []Bit{1, 1, 0, 1}
	x := Xor(a, b)
	if String(x) != "0110" {
		t.Fatalf("Xor = %s", String(x))
	}
	if Parity(a) != 1 || Parity(b) != 1 || Parity(x) != 0 {
		t.Fatal("parity mismatch")
	}
}

func TestDotGF2(t *testing.T) {
	// g0 = 0x6D against an all-ones window: parity of 5 taps = 1.
	if DotGF2(0x6D, 0x7F) != 1 {
		t.Fatal("DotGF2(0x6D, 0x7F) != 1")
	}
	// g1 = 0x4F has 5 taps too.
	if DotGF2(0x4F, 0x7F) != 1 {
		t.Fatal("DotGF2(0x4F, 0x7F) != 1")
	}
	if DotGF2(0x6D, 0) != 0 {
		t.Fatal("DotGF2 of zero state != 0")
	}
	// Single-bit sanity.
	if DotGF2(0x01, 0x01) != 1 || DotGF2(0x01, 0x02) != 0 {
		t.Fatal("single-tap DotGF2 wrong")
	}
	// Against a shift-and-fold parity: every 7-bit window under both
	// generators, then random words.
	fold := func(mask, state uint32) Bit {
		v := mask & state
		for s := 16; s > 0; s /= 2 {
			v ^= v >> s
		}
		return Bit(v & 1)
	}
	for w := uint32(0); w < 128; w++ {
		for _, m := range []uint32{0x6D, 0x4F} {
			if got, want := DotGF2(m, w), fold(m, w); got != want {
				t.Fatalf("DotGF2(%#x, %#x) = %d, want %d", m, w, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		m, w := rng.Uint32(), rng.Uint32()
		if got, want := DotGF2(m, w), fold(m, w); got != want {
			t.Fatalf("DotGF2(%#x, %#x) = %d, want %d", m, w, got, want)
		}
	}
}

func TestHammingDistanceAndEqual(t *testing.T) {
	a := []Bit{1, 0, 1, 0}
	b := []Bit{1, 1, 1, 1}
	if HammingDistance(a, b) != 2 {
		t.Fatal("distance != 2")
	}
	if Equal(a, b) {
		t.Fatal("unequal slices reported equal")
	}
	if !Equal(a, Clone(a)) {
		t.Fatal("clone not equal")
	}
	if Equal(a, a[:3]) {
		t.Fatal("different lengths reported equal")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(9)), 64)
	b := Random(rand.New(rand.NewSource(9)), 64)
	if !Equal(a, b) {
		t.Fatal("same seed produced different bits")
	}
	if err := Validate(a); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesGarbage(t *testing.T) {
	if err := Validate([]Bit{0, 1, 7}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCloneNil(t *testing.T) {
	if Clone(nil) != nil {
		t.Fatal("Clone(nil) != nil")
	}
}

func TestStringRendering(t *testing.T) {
	if s := String([]Bit{1, 0, 1, 1}); s != "1011" {
		t.Fatalf("String = %q", s)
	}
}
