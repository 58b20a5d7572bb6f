package wifi

import "testing"

func TestMinSNRForMode(t *testing.T) {
	if v, err := MinSNRForMode(Mode{QAM64, Rate56}); err != nil || v != 25 {
		t.Fatalf("got %g, %v", v, err)
	}
	if _, err := MinSNRForMode(Mode{BPSK, Rate12}); err == nil {
		t.Fatal("non-table mode accepted")
	}
}
