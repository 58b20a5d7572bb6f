// Package core implements the SledZig mechanism itself: deriving the
// significant bits that pin the OFDM subcarriers overlapping a ZigBee
// channel to the lowest-power QAM points, inserting the extra bits that
// satisfy those constraints through the standard convolutional encoder
// (Algorithm 1 of the paper), and the receiver-side inverse (extra-bit
// removal and ZigBee-channel detection).
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"sledzig/internal/wifi"
)

// ZigBeeChannel identifies one of the four 2 MHz ZigBee channels that
// overlap a 20 MHz WiFi channel, in ascending frequency order. The paper
// calls them CH1..CH4; on WiFi channel 13 they are ZigBee channels 23..26.
type ZigBeeChannel int

// The four overlapped channels.
const (
	CH1 ZigBeeChannel = iota + 1
	CH2
	CH3
	CH4
)

// String names the channel as the paper does.
func (c ZigBeeChannel) String() string {
	if c < CH1 || c > CH4 {
		return fmt.Sprintf("ZigBeeChannel(%d)", int(c))
	}
	return fmt.Sprintf("CH%d", int(c))
}

// Valid reports whether c is CH1..CH4.
func (c ZigBeeChannel) Valid() bool { return c >= CH1 && c <= CH4 }

// AllChannels returns CH1..CH4.
func AllChannels() []ZigBeeChannel {
	return []ZigBeeChannel{CH1, CH2, CH3, CH4}
}

// OffsetHz returns the channel's center-frequency offset from the WiFi
// channel center: -7, -2, +3, +8 MHz. (WiFi channels are on a 5 MHz raster
// like ZigBee's, so the overlap pattern is the same for every aligned
// WiFi/ZigBee pairing — the paper's Fig. 2.)
func (c ZigBeeChannel) OffsetHz() float64 {
	return float64(int(c)-1)*5e6 - 7e6
}

// FromZigBeeChannelNumber maps an absolute 2.4 GHz ZigBee channel number
// (11..26) and a WiFi channel (1..13) to the relative overlapped channel.
// It errors when the ZigBee channel does not overlap the WiFi channel.
func FromZigBeeChannelNumber(zigbeeCh, wifiCh int) (ZigBeeChannel, error) {
	if wifiCh < 1 || wifiCh > 13 {
		return 0, fmt.Errorf("core: WiFi channel %d out of range [1, 13]", wifiCh)
	}
	if zigbeeCh < 11 || zigbeeCh > 26 {
		return 0, fmt.Errorf("core: ZigBee channel %d out of range [11, 26]", zigbeeCh)
	}
	wifiCenter := 2407.0 + 5.0*float64(wifiCh)    // MHz
	zbCenter := 2405.0 + 5.0*float64(zigbeeCh-11) // MHz
	offset := zbCenter - wifiCenter
	for _, c := range AllChannels() {
		if math.Abs(offset-c.OffsetHz()/1e6) < 0.5 {
			return c, nil
		}
	}
	return 0, fmt.Errorf("core: ZigBee channel %d (%.0f MHz) does not overlap WiFi channel %d (%.0f MHz)",
		zigbeeCh, zbCenter, wifiCh, wifiCenter)
}

// channelGeometry is one channel's fixed subcarrier geometry: views of buf
// (off the heap), clipped so a caller's append copies out of the table.
type channelGeometry struct {
	window, data, dataIndex, pilots []int
	buf                             [4][8]int
}

// geometry holds each valid channel's geometry, built once at package
// init; entry 0, all nil, stands in for every invalid channel.
var geometry [CH4 + 1]channelGeometry

func init() {
	for c := CH1; c <= CH4; c++ {
		center := c.OffsetHz() / wifi.SubcarrierSpacing // in subcarrier units
		half := 1e6 / wifi.SubcarrierSpacing            // 3.2 subcarriers
		g := &geometry[c]
		g.window, g.data, g.dataIndex, g.pilots = g.buf[0][:0], g.buf[1][:0], g.buf[2][:0], g.buf[3][:0]
		for k := int(math.Ceil(center-half)) - 1; k <= int(math.Floor(center+half))+1; k++ {
			g.window = append(g.window, k)
			if idx := wifi.DataIndex(k); idx >= 0 {
				g.data, g.dataIndex = append(g.data, k), append(g.dataIndex, idx)
			} else if slices.Contains(wifi.PilotSubcarriers(), k) {
				g.pilots = append(g.pilots, k)
			}
		}
		g.window, g.data, g.dataIndex, g.pilots = slices.Clip(g.window), slices.Clip(g.data), slices.Clip(g.dataIndex), slices.Clip(g.pilots)
	}
}

// geom returns c's geometry, the all-nil entry for an invalid channel.
//
//sledzig:noalloc
func (c ZigBeeChannel) geom() *channelGeometry {
	if !c.Valid() {
		c = 0
	}
	return &geometry[c]
}

// SubcarrierWindow returns the signed indices of the eight OFDM subcarriers
// SledZig pins for channel c: the six fully inside the 2 MHz band plus the
// two adjacent ones whose spectral leakage would otherwise raise the band
// power (paper section IV-B). This and the other geometry accessors return
// nil for an invalid channel, and otherwise a view shared by every caller
// that must not be modified.
//
//sledzig:noalloc
func (c ZigBeeChannel) SubcarrierWindow() []int { return c.geom().window }

// DataSubcarriers returns the data subcarriers within the window (7 for
// CH1-CH3, which contain one pilot; 5 for CH4, which contains three
// nulls), as a shared read-only view.
//
//sledzig:noalloc
func (c ZigBeeChannel) DataSubcarriers() []int { return c.geom().data }

// DataIndices returns the position of each of DataSubcarriers() in the
// 48-wide wifi.DataSubcarriers() array, as a shared read-only view.
//
//sledzig:noalloc
func (c ZigBeeChannel) DataIndices() []int { return c.geom().dataIndex }

// PilotSubcarriers returns the pilots within the window (one for CH1-CH3,
// none for CH4), as a shared read-only view.
//
//sledzig:noalloc
func (c ZigBeeChannel) PilotSubcarriers() []int { return c.geom().pilots }

// DataSubcarrierSubset returns the n data subcarriers closest to the
// channel center, used by the paper's Fig. 11 ablation on how many
// subcarriers must be pinned. For n beyond the channel's own window the
// selection extends into neighbouring data subcarriers, matching the
// paper's 8-subcarrier sweep point on the pilot-bearing channels.
func (c ZigBeeChannel) DataSubcarrierSubset(n int) ([]int, error) {
	sorted := slices.Clone(wifi.DataSubcarriers())
	if n < 0 || n > len(sorted) {
		return nil, fmt.Errorf("core: cannot select %d of %d data subcarriers", n, len(sorted))
	}
	// Nearest the center first; symmetric neighbours tie-break low first.
	center := c.OffsetHz() / wifi.SubcarrierSpacing
	slices.SortFunc(sorted, func(a, b int) int {
		return cmp.Or(cmp.Compare(math.Abs(float64(a)-center), math.Abs(float64(b)-center)), cmp.Compare(a, b))
	})
	slices.Sort(sorted[:n])
	return sorted[:n:n], nil
}

// BandHz returns the channel's band edges relative to the WiFi center
// frequency, for waveform band-power measurement.
func (c ZigBeeChannel) BandHz() (lo, hi float64) {
	return c.OffsetHz() - 1e6, c.OffsetHz() + 1e6
}
