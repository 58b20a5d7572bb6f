// CTC-beacon: cross-technology signalling, the related-work idea
// (SLEM/OfdmFi) rebuilt on SledZig's pinning machinery. The "ook-ctc"
// codec embeds a 10-bit digest (a 0/1 preamble and the payload's CRC-8)
// into an ordinary data frame by toggling its energy inside the ZigBee
// band; a ZigBee node reads it with nothing but RSSI samples, while a
// WiFi client still receives the frame's normal payload.
package main

import (
	"fmt"
	"log"

	"sledzig/internal/bits"
	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

func main() {
	payload := []byte("ordinary WiFi traffic rides along unchanged")

	c, err := codec.New("ook-ctc", codec.Params{Channel: core.CH2})
	if err != nil {
		log.Fatal(err)
	}
	frame, err := c.Encode(payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("embedded a 10-bit digest into a %d-symbol WiFi frame (%.0f us airtime)\n",
		frame.NumSymbols(), frame.AirtimeSeconds()*1e6)

	// ZigBee node: RSSI sampling of the DATA field only.
	data := frame.Waveform[wifi.PreambleLength+wifi.SymbolLength:]
	digest, err := codec.ReadOOKRSSI(data, core.CH2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ZigBee node (RSSI only) read:  %s\n", bits.String(digest))

	// WiFi client: a full receive recovers the payload, and succeeds only
	// if the energy pattern spells the payload's digest.
	got, err := c.Decode(frame.Waveform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WiFi client read payload:      %q\n", got.Payload)
}
