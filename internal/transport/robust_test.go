package transport

import (
	"errors"
	"testing"
	"time"
)

// makeFrag builds a raw fragment header + one payload octet, enough to be
// accepted by Feed without ever completing a message.
func makeFrag(id uint8, index, count int) []byte {
	return []byte{id, uint8(index), uint8(count), 0, 0xAA}
}

// TestPendingCountBounded: feeding first fragments of more distinct
// messages than MaxPending must evict the oldest partials instead of
// growing without bound, and the survivors must be the newest ones.
func TestPendingCountBounded(t *testing.T) {
	f := &Fragmenter{FragmentSize: 16}
	msgs := make([][]byte, 20)
	frags := make([][][]byte, 20)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
		fs, err := f.Split(msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) < 2 {
			t.Fatalf("message %d: need >= 2 fragments, got %d", i, len(fs))
		}
		frags[i] = fs
	}
	r := Reassembler{MaxPending: 4}
	for i := range frags {
		if _, err := r.Feed(frags[i][0]); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if got := r.PendingMessages(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
	// The newest four (16..19) survived: their remaining fragments must
	// complete them.
	for i := 16; i < 20; i++ {
		var got []byte
		for _, frag := range frags[i][1:] {
			out, err := r.Feed(frag)
			if err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			if out != nil {
				got = out
			}
		}
		if string(got) != string(msgs[i]) {
			t.Fatalf("message %d did not survive eviction pressure", i)
		}
	}
	// Message 0 was evicted: its tail fragments alone cannot complete it.
	for _, frag := range frags[0][1:] {
		if out, err := r.Feed(frag); err != nil || out != nil {
			t.Fatalf("evicted message completed from tail fragments (out=%v err=%v)", out, err)
		}
	}
}

func TestPendingDefaultBound(t *testing.T) {
	var r Reassembler
	for id := 0; id < 256; id++ {
		if _, err := r.Feed(makeFrag(uint8(id), 0, 2)); err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
	}
	if got := r.PendingMessages(); got != DefaultMaxPending {
		t.Fatalf("pending = %d, want DefaultMaxPending (%d)", got, DefaultMaxPending)
	}
}

func TestPendingAgeEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	r := Reassembler{
		MaxAge: time.Second,
		Clock:  func() time.Time { return now },
	}
	if _, err := r.Feed(makeFrag(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(500 * time.Millisecond)
	if _, err := r.Feed(makeFrag(2, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if got := r.PendingMessages(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	// Advance past id 1's deadline but not id 2's.
	now = now.Add(700 * time.Millisecond)
	if _, err := r.Feed(makeFrag(3, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if got := r.PendingMessages(); got != 2 {
		t.Fatalf("after age eviction: pending = %d, want 2 (ids 2 and 3)", got)
	}
	// A fragment for an aged-out message restarts it rather than resuming
	// half-forgotten state.
	now = now.Add(10 * time.Second)
	if _, err := r.Feed(makeFrag(2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := r.PendingMessages(); got != 1 {
		t.Fatalf("restart after aging: pending = %d, want 1", got)
	}
}

// TestEvictedMessageCompletesAfterRetransmit: an evicted partial message
// reassembles fine when all its fragments are simply sent again — eviction
// loses progress, not correctness.
func TestEvictedMessageCompletesAfterRetransmit(t *testing.T) {
	f := &Fragmenter{FragmentSize: 16}
	frags, err := f.Split([]byte("evict me, then retry"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("need a multi-fragment message, got %d", len(frags))
	}
	r := Reassembler{MaxPending: 1}
	if _, err := r.Feed(frags[0]); err != nil {
		t.Fatal(err)
	}
	// A newer message pushes the partial out.
	if _, err := r.Feed(makeFrag(200, 0, 2)); err != nil {
		t.Fatal(err)
	}
	// Full retransmission completes it.
	var got []byte
	for _, frag := range frags {
		out, err := r.Feed(frag)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			got = out
		}
	}
	if string(got) != "evict me, then retry" {
		t.Fatalf("got %q", got)
	}
}

func TestFeedErrorsAreTyped(t *testing.T) {
	var r Reassembler
	if _, err := r.Feed([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short fragment: %v", err)
	}
	if _, err := r.Feed(makeFrag(1, 5, 3)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("index >= count: %v", err)
	}
	f := &Fragmenter{FragmentSize: 16}
	frags, err := f.Split([]byte("typed errors or bust"))
	if err != nil {
		t.Fatal(err)
	}
	frags[0][headerLen] ^= 0xFF
	var lastErr error
	for _, frag := range frags {
		if _, ferr := r.Feed(frag); ferr != nil {
			lastErr = ferr
		}
	}
	if !errors.Is(lastErr, ErrChecksum) {
		t.Fatalf("corrupted payload: %v", lastErr)
	}
}
