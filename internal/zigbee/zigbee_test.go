package zigbee

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sledzig/internal/bits"
)

func TestChipSequenceSymbolZero(t *testing.T) {
	// 802.15.4-2015 Table 12-1, data symbol 0.
	want := "11011001110000110101001000101110"
	got, err := ChipSequence(0)
	if err != nil {
		t.Fatal(err)
	}
	if bits.String(got) != want {
		t.Fatalf("symbol 0 chips\n got %s\nwant %s", bits.String(got), want)
	}
}

func TestChipSequenceSymbolSeven(t *testing.T) {
	// Symbol 7 is symbol 0 cyclically right-shifted by 28 chips.
	s0, _ := ChipSequence(0)
	s7, err := ChipSequence(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ChipsPerSymbol; i++ {
		if s7[i] != s0[(i+ChipsPerSymbol-28)%ChipsPerSymbol] {
			t.Fatalf("symbol 7 is not a 28-chip rotation of symbol 0 at chip %d", i)
		}
	}
}

func TestChipSequenceConjugation(t *testing.T) {
	for s := 0; s < 8; s++ {
		a, _ := ChipSequence(s)
		b, err := ChipSequence(s + 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ChipsPerSymbol; i++ {
			want := a[i]
			if i%2 == 1 {
				want ^= 1
			}
			if b[i] != want {
				t.Fatalf("symbol %d is not the conjugate of %d at chip %d", s+8, s, i)
			}
		}
	}
}

func TestChipSequencesDistinct(t *testing.T) {
	if d := MinSequenceDistance(); d < 12 {
		t.Fatalf("minimum pairwise chip distance %d; DSSS margin requires >= 12", d)
	}
}

func TestSpreadDespreadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		data := bits.RandomBytes(rng, int(n%100)+1)
		chips := Spread(data)
		back, agree, err := Despread(chips)
		if err != nil || agree != ChipsPerSymbol {
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

func TestDespreadToleratesChipErrors(t *testing.T) {
	// With minimum sequence distance >= 12, up to 5 chip errors per symbol
	// must always despread correctly.
	rng := rand.New(rand.NewSource(2))
	data := []byte{0x3C, 0xA5}
	chips := Spread(data)
	for trial := 0; trial < 200; trial++ {
		corrupted := bits.Clone(chips)
		for s := 0; s < len(chips)/ChipsPerSymbol; s++ {
			perm := rng.Perm(ChipsPerSymbol)
			for _, p := range perm[:5] {
				corrupted[s*ChipsPerSymbol+p] ^= 1
			}
		}
		back, _, err := Despread(corrupted)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if back[i] != data[i] {
				t.Fatalf("trial %d: despread failed with 5 chip errors per symbol", trial)
			}
		}
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// ITU-T CRC16 (Kermit-style LSB-first) of "123456789" is 0x6F91 for
	// init 0xFFFF; for the 802.15.4 init-0 variant the reference value is
	// 0x2189.
	got := CRC16([]byte("123456789"))
	if got != 0x2189 {
		t.Fatalf("CRC16 = %#04x, want 0x2189", got)
	}
}

func TestBuildParsePPDU(t *testing.T) {
	payload := []byte("hello zigbee")
	ppdu, err := BuildPPDU(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ppdu) != PreambleOctets+2+len(payload)+FCSLength {
		t.Fatalf("PPDU length %d unexpected", len(ppdu))
	}
	got, err := ParsePPDU(ppdu)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload round trip: got %q", got)
	}
}

func TestParsePPDUDetectsCorruption(t *testing.T) {
	ppdu, err := BuildPPDU([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ppdu[PreambleOctets+3] ^= 0x10 // corrupt a payload octet
	if _, err := ParsePPDU(ppdu); err == nil {
		t.Fatal("corrupted PPDU passed FCS")
	}
	// A PHR below one payload octet plus the FCS: 0 and 1 do not cover
	// the FCS itself, and 2 with a zero FCS would pass the CRC with an
	// empty payload, which BuildPPDU never produces.
	for _, phr := range []byte{0, 1, 2} {
		short := []byte{0, 0, 0, 0, SFD, phr, 0, 0, 0}
		if _, err := ParsePPDU(short); err == nil {
			t.Errorf("PHR %d accepted", phr)
		}
	}
}

func TestBuildPPDURejectsOversize(t *testing.T) {
	if _, err := BuildPPDU(make([]byte, MaxPayload)); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

func TestOQPSKChipRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	chips := bits.Random(rng, 256)
	for _, spc := range []int{4, 10} {
		mod := Modulator{SamplesPerChip: spc}
		wave, err := mod.Modulate(chips)
		if err != nil {
			t.Fatal(err)
		}
		demod := Demodulator{SamplesPerChip: spc}
		got, _, err := demod.Demodulate(wave, len(chips))
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(got, chips) {
			t.Fatalf("spc=%d: chip round trip failed (%d errors)", spc, bits.HammingDistance(got, chips))
		}
	}
}

func TestOQPSKUnitPower(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	chips := bits.Random(rng, 512)
	mod := Modulator{SamplesPerChip: 10}
	wave, err := mod.Modulate(chips)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range wave {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	avg := sum / float64(len(wave))
	if avg < 0.99 || avg > 1.01 {
		t.Fatalf("average waveform power %g, want ~1", avg)
	}
}

func TestTransmitReceiveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 20, 100} {
		payload := bits.RandomBytes(rng, n)
		wave, err := Transmitter{}.Transmit(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := Receiver{}.Receive(wave)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if stats.ChipErrors != 0 {
			t.Fatalf("n=%d: %d chip errors on clean waveform", n, stats.ChipErrors)
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("n=%d: payload mismatch at %d", n, i)
			}
		}
	}
}

func TestReceiveRejectsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	wave := make([]complex128, 40000)
	for i := range wave {
		wave[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if _, _, err := (Receiver{}).Receive(wave); err == nil {
		t.Fatal("pure noise decoded as a frame")
	}
}

func TestFrameAirtime(t *testing.T) {
	// A 100-octet payload: (4+2+100+2) octets * 2 symbols * 16 us = 3.456 ms.
	got := FrameAirtime(100)
	want := 3.456e-3
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("FrameAirtime(100) = %g, want %g", got, want)
	}
}

func TestAckTiming(t *testing.T) {
	// Turnaround 192 us, ACK airtime 352 us: both well under the 864 us
	// wait bound, so a transmitter never times out on a delivered ACK.
	if math.Abs(TurnaroundTime-192e-6) > 1e-9 {
		t.Fatalf("turnaround %g", TurnaroundTime)
	}
	if math.Abs(AckAirtime-352e-6) > 1e-9 {
		t.Fatalf("ack airtime %g", AckAirtime)
	}
	if TurnaroundTime+AckAirtime >= AckWaitDuration {
		t.Fatal("ACK cannot arrive within the wait window")
	}
}

func TestModulatorDemodulatorValidation(t *testing.T) {
	if _, err := (Modulator{SamplesPerChip: 1}).Modulate([]bits.Bit{1}); err == nil {
		t.Error("spc=1 accepted by modulator")
	}
	if _, _, err := (Demodulator{SamplesPerChip: 0}).Demodulate(nil, 4); err == nil {
		t.Error("spc=0 accepted by demodulator")
	}
	if _, _, err := (Demodulator{SamplesPerChip: 4}).Demodulate(make([]complex128, 3), 4); err == nil {
		t.Error("short waveform accepted")
	}
}

func TestDespreadValidation(t *testing.T) {
	if _, _, err := Despread(make([]bits.Bit, 63)); err == nil {
		t.Error("non-octet chip stream accepted")
	}
	if _, _, err := DespreadSymbol(make([]bits.Bit, 31)); err == nil {
		t.Error("short symbol accepted")
	}
	if _, err := ChipSequence(16); err == nil {
		t.Error("symbol 16 accepted")
	}
	if _, err := ChipSequence(-1); err == nil {
		t.Error("symbol -1 accepted")
	}
}
