package iq

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]complex128, 1000)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8*len(in) {
		t.Fatalf("stream is %d bytes, want %d", buf.Len(), 8*len(in))
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		// float32 quantization only.
		if math.Abs(real(out[i])-real(in[i])) > 1e-6 || math.Abs(imag(out[i])-imag(in[i])) > 1e-6 {
			t.Fatalf("sample %d: %v vs %v", i, out[i], in[i])
		}
	}
}

func TestWriteRejectsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []complex128{complex(math.NaN(), 0)}); err == nil {
		t.Fatal("NaN sample accepted")
	}
	if err := Write(&buf, []complex128{complex(0, math.Inf(1))}); err == nil {
		t.Fatal("Inf sample accepted")
	}
}

func TestWriteRejectsFloat32Overflow(t *testing.T) {
	for _, s := range []complex128{complex(1e39, 0), complex(0, -1e39)} {
		var buf bytes.Buffer
		err := Write(&buf, []complex128{0, s})
		if err == nil || !strings.Contains(err.Error(), "sample 1 is not finite") {
			t.Errorf("sample %v beyond float32 range: error %v", s, err)
		}
	}
	// The largest float32 is still finite and reads back as written.
	var buf bytes.Buffer
	if err := Write(&buf, []complex128{complex(math.MaxFloat32, -math.MaxFloat32)}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != complex(math.MaxFloat32, -math.MaxFloat32) {
		t.Fatalf("read back %v", got)
	}
}

func TestReadTruncationReportsBytes(t *testing.T) {
	for _, tc := range []struct {
		stream int
		want   string
	}{
		{3, "(3 bytes of a sample)"},
		{8 + 5, "(5 bytes of a sample)"},
	} {
		_, err := Read(bytes.NewReader(make([]byte, tc.stream)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d-byte stream: error %v, want %q", tc.stream, err, tc.want)
		}
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wave.cf32")
	in := []complex128{1, complex(0, -1), complex(0.5, 0.25)}
	if err := WriteFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("%d samples", len(out))
	}
}

func TestNormalizePeak(t *testing.T) {
	s := []complex128{complex(3, 4), complex(0.1, 0)}
	NormalizePeak(s, 0.8)
	if m := math.Hypot(real(s[0]), imag(s[0])); math.Abs(m-0.8) > 1e-12 {
		t.Fatalf("peak %g", m)
	}
	z := []complex128{0, 0}
	NormalizePeak(z, 1)
	if z[0] != 0 {
		t.Fatal("zero signal scaled")
	}
}
