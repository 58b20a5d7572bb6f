package codec

import (
	"errors"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// dataField is the DATA field of a full PPDU: what follows the preamble
// and the SIGNAL symbol.
func dataField(wave []complex128) []complex128 {
	return wave[wifi.PreambleLength+wifi.SymbolLength:]
}

// TestOOKRoundTripBothSides reads one ook-ctc frame from both ends: a
// ZigBee radio recovers the message (the 0/1 preamble, then the payload's
// CRC-8) from the DATA field's band power alone, and the WiFi receiver
// recovers the payload and the same message from the constellation.
func TestOOKRoundTripBothSides(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payload := bits.RandomBytes(rng, 100)
	c, err := newOOK(Params{Channel: core.CH4})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	want := ookMessage(payload)

	// ZigBee side: pure RSSI sampling of the DATA waveform.
	got, err := ReadOOKRSSI(dataField(enc.Waveform), core.CH4)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(got, want[:]) {
		t.Fatalf("ZigBee side read %s, frame carries %s", bits.String(got), bits.String(want[:]))
	}

	// WiFi side: ordinary receive plus mask reconstruction. The recovered
	// mask is the message spelled one group per bit.
	dec, err := c.Decode(enc.Waveform)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec.Payload) != string(payload) {
		t.Fatalf("WiFi side payload differs: got %d octets, want %d", len(dec.Payload), len(payload))
	}
	for s, low := range c.mask {
		if low != enc.ProtectedMask()[s] {
			t.Fatalf("WiFi side mask differs from the transmitted one at symbol %d", s)
		}
	}
}

// TestOOKRandomMessages holds ook-ctc to its defining property on every
// channel: random payloads give random CRC-8 messages, and the RSSI read
// of each frame's DATA field returns exactly the message it carries.
func TestOOKRandomMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, ch := range core.AllChannels() {
		c, err := New("ook-ctc", Params{Channel: ch})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			payload := bits.RandomBytes(rng, 1+rng.Intn(c.MaxPayload()))
			enc, err := c.Encode(payload)
			if err != nil {
				t.Fatalf("%v: %v", ch, err)
			}
			got, err := ReadOOKRSSI(dataField(enc.Waveform), ch)
			if err != nil {
				t.Fatalf("%v trial %d: %v", ch, trial, err)
			}
			if want := ookMessage(payload); !bits.Equal(got, want[:]) {
				t.Fatalf("%v trial %d: RSSI read %s, frame carries %s", ch, trial, bits.String(got), bits.String(want[:]))
			}
		}
	}
}

// TestOOKValidation checks that ook-ctc refuses what it cannot carry and
// that captures the RSSI side cannot read fail cleanly.
func TestOOKValidation(t *testing.T) {
	if _, err := New("ook-ctc", Params{}); err == nil {
		t.Error("zero channel accepted")
	}
	c, err := New("ook-ctc", Params{Channel: core.CH1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Encode(make([]byte, c.MaxPayload()+1)); !errors.Is(err, core.ErrPayloadSize) {
		t.Errorf("oversized payload: got %v, want ErrPayloadSize", err)
	}

	enc, err := c.Encode([]byte("short"))
	if err != nil {
		t.Fatal(err)
	}
	short := dataField(enc.Waveform)[:ookSymbols*wifi.SymbolLength-1]
	if _, err := ReadOOKRSSI(short, core.CH1); err == nil {
		t.Error("capture one sample short of the message accepted")
	}
	if _, err := ReadOOKRSSI(nil, core.CH1); err == nil {
		t.Error("empty capture accepted")
	}

	// A plain frame long enough to span the message keeps the band at one
	// level throughout: no contrast, so no message.
	rng := rand.New(rand.NewSource(1))
	plain, err := wifi.Transmitter{Mode: wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}}.
		Frame(bits.RandomBytes(rng, 4000))
	if err != nil {
		t.Fatal(err)
	}
	data, err := plain.DataWaveform()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < ookSymbols*wifi.SymbolLength {
		t.Fatalf("plain frame of %d samples does not span the message", len(data))
	}
	if got, err := ReadOOKRSSI(data, core.CH1); err == nil {
		t.Errorf("plain frame read as OOK message %s", bits.String(got))
	}
}
