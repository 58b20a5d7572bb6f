package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/wifi"
)

// stripOracle is the two-buffer strip stripFramed replaced: mark the extra
// positions, copy the remaining bits into a logical stream, then parse
// SERVICE, the length header and the payload from that stream. It returns
// the failure class Decoder.Decode counted for each error.
func stripOracle(dataBits []bits.Bit, positions []int) ([]byte, stripFailure, error) {
	extra := make([]bool, len(dataBits))
	for _, p := range positions {
		if p >= len(extra) {
			return nil, stripLayout, fmt.Errorf("core: layout position %d beyond frame: %w", p, ErrExtraBitLayout)
		}
		extra[p] = true
	}
	logical := make([]bits.Bit, 0, len(dataBits)-len(positions))
	for i, b := range dataBits {
		if !extra[i] {
			logical = append(logical, b)
		}
	}
	if len(logical) < serviceBits+8*headerOctets {
		return nil, stripLength, fmt.Errorf("core: stripped stream too short (%d bits): %w", len(logical), ErrExtraBitLayout)
	}
	body := logical[serviceBits:]
	headerBytes, err := bits.ToBytes(body[:8*headerOctets])
	if err != nil {
		return nil, stripHeader, err
	}
	length := int(headerBytes[0]) | int(headerBytes[1])<<8
	if length == 0 {
		return nil, stripHeader, fmt.Errorf("core: header declares empty payload: %w", ErrExtraBitLayout)
	}
	need := 8 * (headerOctets + length)
	if len(body) < need {
		return nil, stripLength, fmt.Errorf("core: header declares %d octets but only %d bits remain: %w", length, len(body)-8*headerOctets, ErrExtraBitLayout)
	}
	payload, err := bits.ToBytes(body[8*headerOctets : need])
	if err != nil {
		return nil, stripHeader, err
	}
	return payload, stripOK, nil
}

// framedBits builds a DATA stream of n bits whose non-extra bits carry
// SERVICE zeros, a length header declaring length octets, payload and
// pad; the bits at positions (ascending, below n) take random values.
func framedBits(rng *rand.Rand, n int, positions []int, length int, payload []byte) []bits.Bit {
	logical := make([]bits.Bit, 0, n)
	logical = append(logical, make([]bits.Bit, serviceBits)...)
	logical = append(logical, bits.FromBytes([]byte{byte(length), byte(length >> 8)})...)
	logical = append(logical, bits.FromBytes(payload)...)
	out := make([]bits.Bit, n)
	li, p := 0, 0
	for i := range out {
		if p < len(positions) && positions[p] == i {
			out[i] = bits.Bit(rng.Intn(2))
			p++
			continue
		}
		if li < len(logical) {
			out[i] = logical[li]
		} else {
			out[i] = bits.Bit(rng.Intn(2))
		}
		li++
	}
	return out
}

// stripPositions runs stripFramed on an explicit list of extra-bit
// positions, walked as the one symbol of a tile whose head and body both
// list them.
func stripPositions(dataBits []bits.Bit, positions []int) ([]byte, stripFailure, error) {
	x := (&Tile{positions: append(slices.Clone(positions), positions...)}).frame(1, nil)
	return stripFramed(dataBits, &x)
}

// checkStripAgrees runs stripFramed and the oracle on one input and fails
// unless they return the same payload and failure class; every failure
// must wrap ErrExtraBitLayout.
func checkStripAgrees(t *testing.T, name string, dataBits []bits.Bit, positions []int) ([]byte, stripFailure) {
	t.Helper()
	got, gotClass, gotErr := stripPositions(dataBits, positions)
	want, wantClass, wantErr := stripOracle(dataBits, positions)
	if gotClass != wantClass || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: class %d err %v, oracle class %d err %v", name, gotClass, gotErr, wantClass, wantErr)
	}
	if gotErr != nil && !errors.Is(gotErr, ErrExtraBitLayout) {
		t.Fatalf("%s: error %v does not wrap ErrExtraBitLayout", name, gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: payload %x, oracle %x", name, got, want)
	}
	return got, gotClass
}

func TestStripFramedHostileInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	positions := []int{3, 20, 21, 40}
	const n = 96
	valid := framedBits(rng, n, positions, 4, []byte{1, 2, 3, 4})
	withBit := func(logicalIdx int, v bits.Bit) []bits.Bit {
		b := append([]bits.Bit(nil), valid...)
		li := 0
		for i := range b {
			if slices.Contains(positions, i) {
				continue
			}
			if li == logicalIdx {
				b[i] = v
				return b
			}
			li++
		}
		t.Fatalf("logical bit %d beyond the stream", logicalIdx)
		return nil
	}
	cases := []struct {
		name      string
		bits      []bits.Bit
		positions []int
		want      stripFailure
	}{
		{"valid", valid, positions, stripOK},
		{"last position at frame end", valid, []int{3, 20, 21, n}, stripLayout},
		{"last position far beyond frame", valid, []int{3, 20, 21, 1 << 20}, stripLayout},
		{"shorter than service and header", valid[:serviceBits+8*headerOctets+2], positions[:3], stripLength},
		{"no bits at all", nil, nil, stripLength},
		{"zero length", framedBits(rng, n, positions, 0, nil), positions, stripHeader},
		{"length past remaining bits", framedBits(rng, n, positions, 9, []byte{1}), positions, stripLength},
		{"maximum length", framedBits(rng, n, positions, 0xffff, nil), positions, stripLength},
		{"non-binary header bit", withBit(serviceBits+3, 2), positions, stripHeader},
		{"non-binary payload bit", withBit(serviceBits+8*headerOctets+5, 2), positions, stripHeader},
		{"non-binary service bit is ignored", withBit(2, 2), positions, stripOK},
		{"non-binary pad bit is ignored", withBit(serviceBits+8*headerOctets+8*4, 2), positions, stripOK},
	}
	for _, tc := range cases {
		if _, got := checkStripAgrees(t, tc.name, tc.bits, tc.positions); got != tc.want {
			t.Errorf("%s: class %d, want %d", tc.name, got, tc.want)
		}
	}
	payload, _, err := stripPositions(valid, positions)
	if err != nil || !bytes.Equal(payload, []byte{1, 2, 3, 4}) {
		t.Fatalf("valid stream: payload %x err %v", payload, err)
	}
}

// TestStripFramedMatchesOracle compares the one-pass strip with the
// oracle on the positions every paper mode and channel really produces:
// the plan's frame index and masked frames, on well-framed streams and
// on random bits. A masked frame's strip, which walks the pinned symbols
// of the plan's tile, must match the strip of their positions gathered
// into one list.
func TestStripFramedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for ch := CH1; ch <= CH4; ch++ {
				plan, err := CachedPlan(conv, mode, ch)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 6; trial++ {
					nSym := 1 + rng.Intn(12)
					var positions []int
					var mask []bool
					if trial%2 == 0 {
						var layout *FrameLayout
						layout, err = plan.FrameLayout(nSym)
						if err == nil {
							positions = layout.Positions
						}
					} else {
						mask = make([]bool, nSym)
						for i := range mask {
							mask[i] = rng.Intn(2) == 0
						}
						var layout spelledLayout
						layout, err = pinnedLayout(plan, mask)
						positions = layout.positions
					}
					if err != nil {
						t.Fatal(err)
					}
					check := func(name string, dataBits []bits.Bit) ([]byte, stripFailure) {
						t.Helper()
						got, class := checkStripAgrees(t, name, dataBits, positions)
						if mask != nil {
							checkMaskedStripAgrees(t, name, plan, mask, dataBits)
						}
						return got, class
					}
					n := nSym * mode.DataBitsPerSymbol()
					capacity := (n - len(positions) - serviceBits - 8*headerOctets) / 8
					name := fmt.Sprintf("%v %v %v %d symbols trial %d", conv, mode, ch, nSym, trial)
					if capacity > 0 {
						length := 1 + rng.Intn(capacity)
						payload := make([]byte, length)
						rng.Read(payload)
						framed := framedBits(rng, n, positions, length, payload)
						if got, class := check(name+" framed", framed); class != stripOK || !bytes.Equal(got, payload) {
							t.Fatalf("%s framed: class %d payload %x, want %x", name, class, got, payload)
						}
						over := framedBits(rng, n, positions, capacity+1, payload)
						check(name+" overlong", over)
					}
					check(name+" random", bits.Random(rng, n))
				}
			}
		}
	}
}

// checkMaskedStripAgrees strips dataBits as the frame of len(mask)
// symbols that mask pins and fails unless the result equals the strip of
// the pinned symbols' positions gathered into one list.
func checkMaskedStripAgrees(t *testing.T, name string, plan *Plan, mask []bool, dataBits []bits.Bit) {
	t.Helper()
	x, err := plan.frame(len(mask), mask)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := pinnedLayout(plan, mask)
	if err != nil {
		t.Fatal(err)
	}
	got, gotClass, gotErr := stripFramed(dataBits, &x)
	want, wantClass, wantErr := stripPositions(dataBits, pinned.positions)
	if gotClass != wantClass || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("%s: masked strip gave class %d err %v payload %x, the gathered positions class %d err %v payload %x",
			name, gotClass, gotErr, got, wantClass, wantErr, want)
	}
}

// FuzzStripFramed feeds the strip arbitrary bits and positions. Positions
// decoded as ascending gaps must agree with the oracle; the raw bytes
// taken as positions in any order must not panic, because stripFramed
// bounds every read whatever the layout holds.
func FuzzStripFramed(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	positions := []int{3, 20, 21, 40}
	for _, length := range []int{0, 2, 4, 200} {
		framed := framedBits(rng, 96, positions, length, []byte{0xa5, 0x5a, 0xff, 0x01})
		f.Add(framed, []byte{3, 16, 0, 18}) // gaps decode to positions 3, 20, 21, 40
	}
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, 40), []byte{255, 255, 255})
	f.Fuzz(func(t *testing.T, raw, gaps []byte) {
		dataBits := make([]bits.Bit, len(raw))
		for i, b := range raw {
			dataBits[i] = b & 1
			if b >= 0xfe {
				dataBits[i] = 2
			}
		}
		ascending := make([]int, len(gaps))
		unordered := make([]int, len(gaps))
		p := -1
		for i, g := range gaps {
			p += 1 + int(g)
			ascending[i] = p
			unordered[i] = int(int8(g))
		}
		checkStripAgrees(t, "fuzz", dataBits, ascending)
		_, _, _ = stripPositions(dataBits, unordered)
	})
}
