// Package iq reads and writes complex baseband waveforms in the de-facto
// SDR interchange format: interleaved little-endian complex float32
// ("cf32", what GNU Radio file sinks/sources and most USRP tooling use).
// It is the bridge from this repository to real radios: a waveform written
// here can be transmitted by the same USRP N210 setup the paper used.
package iq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Write streams samples as interleaved complex float32.
func Write(w io.Writer, samples []complex128) error {
	bw := bufio.NewWriter(w)
	var buf [8]byte
	for i, s := range samples {
		// Check the float32 values written: a finite sample beyond float32
		// range rounds to an infinity.
		re, im := float32(real(s)), float32(imag(s))
		if r, j := float64(re), float64(im); math.IsNaN(r) || math.IsNaN(j) || math.IsInf(r, 0) || math.IsInf(j, 0) {
			return fmt.Errorf("iq: sample %d is not finite (%g%+gi)", i, real(s), imag(s))
		}
		binary.LittleEndian.PutUint32(buf[0:], math.Float32bits(re))
		binary.LittleEndian.PutUint32(buf[4:], math.Float32bits(im))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read consumes an entire cf32 stream.
func Read(r io.Reader) ([]complex128, error) {
	br := bufio.NewReader(r)
	var out []complex128
	var buf [8]byte
	for {
		n, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return out, nil
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("iq: truncated stream (%d bytes of a sample)", n)
		}
		if err != nil {
			return nil, err
		}
		re := math.Float32frombits(binary.LittleEndian.Uint32(buf[0:]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(buf[4:]))
		out = append(out, complex(float64(re), float64(im)))
	}
}

// WriteFile writes samples to path in cf32 format.
func WriteFile(path string, samples []complex128) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, samples); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a cf32 file.
func ReadFile(path string) ([]complex128, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// NormalizePeak scales samples in place so the peak magnitude is peak
// (DAC full-scale headroom; USRP tooling usually wants <= 1.0). A zero
// signal is returned unchanged.
func NormalizePeak(samples []complex128, peak float64) []complex128 {
	var m float64
	for _, s := range samples {
		if a := math.Hypot(real(s), imag(s)); a > m {
			m = a
		}
	}
	if m == 0 {
		return samples
	}
	g := complex(peak/m, 0)
	for i := range samples {
		samples[i] *= g
	}
	return samples
}
