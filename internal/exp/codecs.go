package exp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"sledzig/internal/bits"
	"sledzig/internal/codec"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// CodecCompareOptions configures the three-backend coexistence
// comparison. Zero values select the paper's defaults: QAM-16 rate 1/2 on
// CH2, 100-octet payloads, 20 frames per backend at 15 dB in-band SNR.
type CodecCompareOptions struct {
	Convention wifi.Convention
	Mode       wifi.Mode
	Channel    core.ZigBeeChannel
	Seed       int64
	// Frames is the number of AWGN round-trip trials behind each PRR.
	Frames int
	// SNRdB is the in-band SNR of the AWGN trials.
	SNRdB float64
	// PayloadLen is the per-frame payload size in octets.
	PayloadLen int
	// Only restricts the sweep to one backend name ("" runs all).
	Only string
}

func (o CodecCompareOptions) withDefaults() CodecCompareOptions {
	if o.Mode.Modulation == 0 {
		o.Mode = wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}
	}
	if o.Channel == 0 {
		o.Channel = core.CH2
	}
	if o.Frames <= 0 {
		o.Frames = 20
	}
	if o.SNRdB == 0 {
		o.SNRdB = 15
	}
	if o.PayloadLen <= 0 {
		o.PayloadLen = 100
	}
	return o
}

// CodecRow is one backend's line in the comparison: the measured
// protected-band drop next to the contract it claims, packet reception
// ratio under AWGN, and what the mechanism costs WiFi.
type CodecRow struct {
	// Codec is the registry name of the backend.
	Codec string `json:"codec"`
	// BandDropDB is the measured power drop in the protected ZigBee band
	// over the backend's protected DATA symbols, relative to a standard
	// frame (see codec.MeasureBandDrop).
	BandDropDB float64 `json:"band_drop_db"`
	// ContractMinDropDB is the floor the backend's Contract promises.
	ContractMinDropDB float64 `json:"contract_min_drop_db"`
	// WholeFrame reports whether the drop holds on every DATA symbol.
	WholeFrame bool `json:"whole_frame"`
	// PRR is the fraction of AWGN trials whose payload round-tripped
	// exactly.
	PRR float64 `json:"prr"`
	// ThroughputLossFraction is the share of the frame's standard WiFi
	// data throughput the mechanism costs (1 = carries no WiFi data).
	ThroughputLossFraction float64 `json:"throughput_loss_fraction"`
	// AirtimeMicros is the PPDU airtime for one PayloadLen-octet frame.
	AirtimeMicros float64 `json:"airtime_micros"`
	// MaxPayload is the backend's single-frame payload bound in octets.
	MaxPayload int `json:"max_payload"`
}

// CompareCodecs runs every registered backend (or opts.Only) through the
// same three measurements the paper uses to position SledZig against the
// related work: protected-band power drop, PRR under AWGN, and WiFi
// throughput cost. All trials are deterministic under opts.Seed.
func CompareCodecs(opts CodecCompareOptions) ([]CodecRow, error) {
	opts = opts.withDefaults()
	params := codec.Params{
		Convention: opts.Convention,
		Mode:       opts.Mode,
		Channel:    opts.Channel,
	}
	var rows []CodecRow
	for _, name := range codec.Names() {
		if opts.Only != "" && opts.Only != name {
			continue
		}
		c, err := codec.New(name, params)
		if err != nil {
			return nil, fmt.Errorf("exp: codec %s: %w", name, err)
		}
		rng := rand.New(rand.NewSource(opts.Seed))
		probe := bits.RandomBytes(rng, opts.PayloadLen)
		drop, err := codec.MeasureBandDrop(c, params, probe)
		if err != nil {
			return nil, fmt.Errorf("exp: codec %s: band drop: %w", name, err)
		}
		// The airtime is the frame's accounting; it needs no render.
		probeFrame, err := c.Assemble(probe)
		if err != nil {
			return nil, fmt.Errorf("exp: codec %s: %w", name, err)
		}
		ct := c.Contract()
		row := CodecRow{
			Codec:                  name,
			BandDropDB:             drop,
			ContractMinDropDB:      ct.MinDropDB,
			WholeFrame:             ct.WholeFrame,
			ThroughputLossFraction: c.OverheadFraction(),
			AirtimeMicros:          probeFrame.AirtimeSeconds * 1e6,
			MaxPayload:             c.MaxPayload(),
		}
		ok := 0
		for f := 0; f < opts.Frames; f++ {
			payload := bits.RandomBytes(rng, opts.PayloadLen)
			enc, err := c.Encode(payload)
			if err != nil {
				return nil, fmt.Errorf("exp: codec %s: %w", name, err)
			}
			noisy := addAWGN(rng, enc.Waveform, opts.SNRdB)
			dec, err := c.Decode(noisy)
			if err == nil && bytes.Equal(dec.Payload, payload) {
				ok++
			}
		}
		row.PRR = float64(ok) / float64(opts.Frames)
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("exp: no codec matches %q (registered: %v)", opts.Only, codec.Names())
	}
	return rows, nil
}

// addAWGN returns wave plus white noise sized for the target in-band SNR.
// Signal power is measured over the whole waveform; 52 of 64 subcarriers
// are occupied, so the full-rate noise is scaled up by 64/52.
func addAWGN(rng *rand.Rand, wave []complex128, snrDB float64) []complex128 {
	var sig float64
	for _, v := range wave {
		sig += real(v)*real(v) + imag(v)*imag(v)
	}
	sig /= float64(len(wave))
	noise := sig / math.Pow(10, snrDB/10) * 64.0 / 52.0
	sigma := math.Sqrt(noise / 2)
	noisy := make([]complex128, len(wave))
	for i, v := range wave {
		noisy[i] = v + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return noisy
}

// FormatCodecTable renders the comparison as the aligned text table the
// experiments command prints.
func FormatCodecTable(rows []CodecRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s%12s%12s%8s%8s%12s%14s%12s\n",
		"codec", "drop (dB)", "contract", "whole", "PRR", "WiFi cost", "airtime (us)", "max (B)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s%12.1f%12.1f%8v%8.2f%11.1f%%%14.1f%12d\n",
			r.Codec, r.BandDropDB, r.ContractMinDropDB, r.WholeFrame, r.PRR,
			100*r.ThroughputLossFraction, r.AirtimeMicros, r.MaxPayload)
	}
	return b.String()
}
