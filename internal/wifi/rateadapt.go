package wifi

import "fmt"

// minSNRByMode mirrors the Table IV minimum-SNR column (dB). The
// coexistence simulator reads it to decide whether a WiFi frame survives
// the SINR it sees.
var minSNRByMode = map[Mode]float64{
	{QAM16, Rate12}:  11,
	{QAM16, Rate34}:  15,
	{QAM64, Rate23}:  18,
	{QAM64, Rate34}:  20,
	{QAM64, Rate56}:  25,
	{QAM256, Rate34}: 29,
	{QAM256, Rate56}: 31,
}

// MinSNRForMode returns the Table IV threshold for one of the paper's
// modes.
func MinSNRForMode(m Mode) (float64, error) {
	v, ok := minSNRByMode[m]
	if !ok {
		return 0, fmt.Errorf("wifi: mode %v not in the Table IV set", m)
	}
	return v, nil
}
