package ht40

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sledzig/internal/bits"
	"sledzig/internal/core"
	"sledzig/internal/wifi"
)

// oracleEncode is Encoder.Encode as it stood when the 40 MHz format kept
// its own assembler: its own logical, extra-mask and physical streams and
// an allocating scramble. The exported solver it called is replaced by
// oracleSolve.
func oracleEncode(e *Encoder, payload []byte) (*Frame, error) {
	if e.Plan == nil {
		return nil, fmt.Errorf("ht40: encoder has no plan")
	}
	if len(payload) == 0 || len(payload) > 0xFFFF {
		return nil, fmt.Errorf("ht40: payload length %d out of range", len(payload))
	}
	nSym := e.NumSymbols(len(payload))
	nDBPS := DataBitsPerSymbol(e.Plan.Mode)
	clusters, positions, err := core.LayoutForConstraints(e.Plan.constraints, nSym, 2*nDBPS)
	if err != nil {
		return nil, err
	}
	total := nSym * nDBPS

	logical := make([]bits.Bit, 0, total-len(positions))
	logical = append(logical, make([]bits.Bit, serviceBits)...)
	logical = append(logical, bits.FromBytes([]byte{byte(len(payload)), byte(len(payload) >> 8)})...)
	logical = append(logical, bits.FromBytes(payload)...)
	logical = append(logical, make([]bits.Bit, tailBits)...)
	capacity := total - len(positions)
	if len(logical) > capacity {
		return nil, fmt.Errorf("ht40: logical stream %d exceeds capacity %d", len(logical), capacity)
	}
	logical = append(logical, make([]bits.Bit, capacity-len(logical))...)

	extra := make([]bool, total)
	for _, p := range positions {
		if p < 0 || p >= total {
			return nil, fmt.Errorf("ht40: extra position %d outside frame", p)
		}
		extra[p] = true
	}
	u := make([]bits.Bit, total)
	li := 0
	for i := range u {
		if !extra[i] {
			u[i] = logical[li]
			li++
		}
	}
	seed := e.Seed
	if seed == 0 {
		seed = wifi.DefaultScramblerSeed
	}
	x, err := wifi.ScrambleWithSeed(u, seed)
	if err != nil {
		return nil, err
	}
	for _, p := range positions {
		x[p] = 0
	}
	if err := oracleSolve(x, clusters); err != nil {
		return nil, err
	}
	return &Frame{Plan: e.Plan, NumSymbols: nSym, ScrambledBits: x}, nil
}

// oracleSolve sets the extra bits of x, zero on entry, so every pinned
// mother-code output holds. Each cluster is a small GF(2) system whose
// coefficients it reads off the standard convolutional encoder: flipping
// one solver position flips exactly the pinned outputs it feeds. The
// systems are invertible, so any correct solver finds the same bits.
func oracleSolve(x []bits.Bit, clusters []core.Cluster) error {
	output := func(eq core.Constraint) bits.Bit {
		lo := max(eq.Step()-(wifi.ConstraintLength-1), 0)
		mother := wifi.ConvolutionalEncode(x[lo : eq.Step()+1])
		return mother[2*(eq.Step()-lo)+eq.MotherIndex%2]
	}
	for _, cl := range clusters {
		n := len(cl.Positions)
		rows := make([][]bits.Bit, n) // coefficients, then the right-hand side
		for r, eq := range cl.Equations {
			rows[r] = make([]bits.Bit, n+1)
			base := output(eq)
			for c, p := range cl.Positions {
				x[p] ^= 1
				rows[r][c] = output(eq) ^ base
				x[p] ^= 1
			}
			rows[r][n] = eq.Value ^ base
		}
		for col := range n {
			pivot := col
			for pivot < n && rows[pivot][col] == 0 {
				pivot++
			}
			if pivot == n {
				return fmt.Errorf("oracle: singular cluster at mother index %d", cl.Equations[0].MotherIndex)
			}
			rows[col], rows[pivot] = rows[pivot], rows[col]
			for r := range rows {
				if r != col && rows[r][col] == 1 {
					for k := col; k <= n; k++ {
						rows[r][k] ^= rows[col][k]
					}
				}
			}
		}
		for c, p := range cl.Positions {
			x[p] = rows[c][n]
		}
	}
	return nil
}

// oracleStrip is Decode's strip as it stood when the 40 MHz format kept
// its own: its own extra mask, logical stream and header parse.
func oracleStrip(plan *Plan, dataBits []bits.Bit, nSym int) ([]byte, error) {
	_, positions, err := core.LayoutForConstraints(plan.constraints, nSym, 2*DataBitsPerSymbol(plan.Mode))
	if err != nil {
		return nil, err
	}
	extra := make([]bool, len(dataBits))
	for _, p := range positions {
		if p < len(extra) {
			extra[p] = true
		}
	}
	logical := make([]bits.Bit, 0, len(dataBits))
	for i, b := range dataBits {
		if !extra[i] {
			logical = append(logical, b)
		}
	}
	if len(logical) < serviceBits+8*headerOctets {
		return nil, fmt.Errorf("ht40: stripped stream too short")
	}
	body := logical[serviceBits:]
	hdr, err := bits.ToBytes(body[:8*headerOctets])
	if err != nil {
		return nil, err
	}
	length := int(hdr[0]) | int(hdr[1])<<8
	need := 8 * (headerOctets + length)
	if length == 0 || len(body) < need {
		return nil, fmt.Errorf("ht40: header declares %d octets, stream too short", length)
	}
	return bits.ToBytes(body[8*headerOctets : need])
}

// withDeclaredLength returns a copy of dataBits whose length header, the
// 16 logical bits after SERVICE, declares length octets.
func withDeclaredLength(dataBits []bits.Bit, positions []int, length int) []bits.Bit {
	out := bits.Clone(dataBits)
	li, p := 0, 0
	for i := range out {
		if p < len(positions) && positions[p] == i {
			p++
			continue
		}
		if k := li - serviceBits; k >= 0 && k < 8*headerOctets {
			out[i] = bits.Bit(length >> k & 1)
		}
		li++
	}
	return out
}

// TestAssemblyAndStripMatchOracles holds the 40 MHz frames, assembled and
// stripped by core, to the format's own assembler and strip: identical
// encoder input and frame length for both conventions, every paper mode,
// all eight channels, random payload lengths and scrambler seeds; the same
// payload back from both strips; and a declared length of zero or past the
// end rejected by both.
func TestAssemblyAndStripMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, conv := range []wifi.Convention{wifi.ConventionIEEE, wifi.ConventionPaper} {
		for _, mode := range wifi.PaperModes() {
			for _, ch := range AllChannels() {
				plan, err := NewPlan(conv, mode, ch)
				if err != nil {
					t.Fatalf("%v %v %v: %v", conv, mode, ch, err)
				}
				for trial := 0; trial < 3; trial++ {
					enc := &Encoder{Plan: plan, Seed: uint8(rng.Intn(128))}
					payload := bits.RandomBytes(rng, 1+rng.Intn(2000))
					name := fmt.Sprintf("%v %v %v seed %d, %d B", conv, mode, ch, enc.Seed, len(payload))
					got, err := enc.Encode(payload)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := oracleEncode(enc, payload)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if got.NumSymbols != want.NumSymbols || !bits.Equal(got.ScrambledBits, want.ScrambledBits) {
						t.Fatalf("%s: %d symbols, oracle %d; encoder input equal: %v", name,
							got.NumSymbols, want.NumSymbols, bits.Equal(got.ScrambledBits, want.ScrambledBits))
					}

					dataBits, err := wifi.ScrambleWithSeed(got.ScrambledBits, cmp.Or(enc.Seed, wifi.DefaultScramblerSeed))
					if err != nil {
						t.Fatal(err)
					}
					_, positions, err := core.LayoutForConstraints(plan.constraints, got.NumSymbols, 2*DataBitsPerSymbol(mode))
					if err != nil {
						t.Fatal(err)
					}
					gotPayload, err := core.StripPayload(dataBits, plan.tile, got.NumSymbols)
					if err != nil {
						t.Fatalf("%s: strip: %v", name, err)
					}
					wantPayload, err := oracleStrip(plan, dataBits, got.NumSymbols)
					if err != nil {
						t.Fatalf("%s: oracle strip: %v", name, err)
					}
					if !bytes.Equal(gotPayload, payload) || !bytes.Equal(wantPayload, payload) {
						t.Fatalf("%s: strip and oracle strip disagree with the payload", name)
					}

					for _, length := range []int{0, 0xFFFF} {
						hostile := withDeclaredLength(dataBits, positions, length)
						if _, err := core.StripPayload(hostile, plan.tile, got.NumSymbols); !errors.Is(err, core.ErrExtraBitLayout) {
							t.Fatalf("%s: declared length %d: strip error %v", name, length, err)
						}
						if _, err := oracleStrip(plan, hostile, got.NumSymbols); err == nil {
							t.Fatalf("%s: declared length %d accepted by the oracle strip", name, length)
						}
					}
				}
			}
		}
	}
}
