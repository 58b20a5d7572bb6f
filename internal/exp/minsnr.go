package exp

import (
	"math"
	"math/rand"

	"sledzig/internal/bits"
	"sledzig/internal/wifi"
)

// MinSNRRow compares the paper's Table IV minimum-SNR column against this
// PHY's measured requirement (hard-decision Viterbi; expect ~1-2 dB above
// textbook soft-decision figures).
type MinSNRRow struct {
	Mode       wifi.Mode
	PaperDB    float64
	MeasuredDB float64 // hard-decision chain; NaN if never reached
	SoftDB     float64 // soft-decision chain; NaN if never reached
}

// MinSNRSweep measures each paper mode's required SNR by decoding frames
// through the full waveform chain under AWGN. frames controls the per-
// point accuracy (10 gives a coarse but fast estimate). The modes are
// measured in parallel across GOMAXPROCS workers, each with its own rng
// derived from seed and the mode index, so results are deterministic for a
// given seed regardless of the worker count.
func MinSNRSweep(conv wifi.Convention, seed int64, frames int) ([]MinSNRRow, error) {
	if frames <= 0 {
		frames = 10
	}
	modes := wifi.PaperModes()
	rows := make([]MinSNRRow, len(modes))
	err := parallelFor(len(modes), func(i int) error {
		mode := modes[i]
		rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
		paper := paperMinSNR(mode)
		row := MinSNRRow{Mode: mode, PaperDB: paper, MeasuredDB: math.NaN(), SoftDB: math.NaN()}
		for snr := paper - 6; snr <= paper+8; snr += 2 {
			per, err := measurePER(conv, mode, snr, frames, false, rng)
			if err != nil {
				return err
			}
			if per <= 0.1 {
				row.MeasuredDB = snr
				break
			}
		}
		for snr := paper - 8; snr <= paper+8; snr += 2 {
			per, err := measurePER(conv, mode, snr, frames, true, rng)
			if err != nil {
				return err
			}
			if per <= 0.1 {
				row.SoftDB = snr
				break
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func paperMinSNR(m wifi.Mode) float64 {
	switch m {
	case wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate12}:
		return 11
	case wifi.Mode{Modulation: wifi.QAM16, CodeRate: wifi.Rate34}:
		return 15
	case wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate23}:
		return 18
	case wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate34}:
		return 20
	case wifi.Mode{Modulation: wifi.QAM64, CodeRate: wifi.Rate56}:
		return 25
	case wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate34}:
		return 29
	case wifi.Mode{Modulation: wifi.QAM256, CodeRate: wifi.Rate56}:
		return 31
	}
	return 0
}

// measurePER sends frames through AWGN at the given SNR (signal power over
// noise power within the occupied bandwidth) and counts decode failures.
func measurePER(conv wifi.Convention, mode wifi.Mode, snrDB float64, frames int, soft bool, rng *rand.Rand) (float64, error) {
	tx := wifi.Transmitter{Mode: mode, Convention: conv}
	rx := wifi.Receiver{Convention: conv, Soft: soft}
	// One result, reused, owns the receive buffers for every frame.
	var res wifi.RxResult
	failures := 0
	for f := 0; f < frames; f++ {
		payload := bits.RandomBytes(rng, 100)
		frame, err := tx.Frame(payload)
		if err != nil {
			return 0, err
		}
		wave, err := frame.Waveform()
		if err != nil {
			return 0, err
		}
		if err := rx.ReceiveInto(addAWGN(rng, wave, snrDB), &res); err != nil {
			failures++
			continue
		}
		if len(res.PSDU) != len(payload) {
			failures++
			continue
		}
		for i := range payload {
			if res.PSDU[i] != payload[i] {
				failures++
				break
			}
		}
	}
	return float64(failures) / float64(frames), nil
}
