// Package transport adapts arbitrary-length messages onto SledZig frames:
// fragmentation with a 4-octet header (message id, fragment index, count),
// reassembly with out-of-order tolerance, and a checksum over the whole
// message. It is the piece a downstream user writes first, so the library
// ships it: sending a 100 kB firmware image over 4095-octet-bounded PPDUs
// becomes a one-call operation on each side.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"sledzig/internal/obs"
)

// ErrMalformed marks fragments that violate the header contract (too
// short, index out of range, fragment count changing mid-message) and
// reassembled bodies too short to carry a checksum.
var ErrMalformed = errors.New("transport: malformed fragment")

// ErrChecksum marks a fully reassembled message whose CRC-32 does not
// match its trailer.
var ErrChecksum = errors.New("transport: message checksum mismatch")

// transportMetrics holds the fragment/reassembly counters, resolved
// lazily against the process-wide registry.
type transportMetrics struct {
	fragmentsSplit    *obs.Counter
	messagesSplit     *obs.Counter
	fragmentsReceived *obs.Counter
	fragmentsDup      *obs.Counter
	messagesDone      *obs.Counter
	failMalformed     *obs.Counter
	failChecksum      *obs.Counter
	evictedAge        *obs.Counter
	evictedOverflow   *obs.Counter
}

var transportLazy obs.Lazy[*transportMetrics]

var transportNil = &transportMetrics{}

func metrics() *transportMetrics {
	return transportLazy.Get(func(r *obs.Registry) *transportMetrics {
		if r == nil {
			return transportNil
		}
		s := r.Scope("transport")
		return &transportMetrics{
			fragmentsSplit:    s.Counter("fragments_split"),
			messagesSplit:     s.Counter("messages_split"),
			fragmentsReceived: s.Counter("fragments_received"),
			fragmentsDup:      s.Counter("fragments_duplicate"),
			messagesDone:      s.Counter("messages_reassembled"),
			failMalformed:     s.Counter("fail.malformed"),
			failChecksum:      s.Counter("fail.checksum"),
			evictedAge:        s.Counter("evicted.age"),
			evictedOverflow:   s.Counter("evicted.overflow"),
		}
	})
}

// Fragment header layout: id(1) | index(1) | count(1) | flags(1), followed
// by the fragment payload. The final fragment carries the message CRC-32
// in its last four octets.
const (
	headerLen = 4
	crcLen    = 4
	// flagLast marks the final fragment.
	flagLast = 0x01
)

// MaxFragmentPayload computes the usable payload per fragment for a given
// frame capacity (octets).
func MaxFragmentPayload(frameCapacity int) int {
	return frameCapacity - headerLen
}

// Fragmenter splits messages.
type Fragmenter struct {
	// FragmentSize is the per-frame payload budget in octets (the frame
	// capacity handed to the PHY encoder).
	FragmentSize int
	nextID       uint8
}

// Split fragments one message. Each returned slice fits FragmentSize.
func (f *Fragmenter) Split(message []byte) ([][]byte, error) {
	if len(message) == 0 {
		return nil, fmt.Errorf("transport: empty message")
	}
	if f.FragmentSize < headerLen+crcLen+1 {
		return nil, fmt.Errorf("transport: fragment size %d too small", f.FragmentSize)
	}
	payloadPer := f.FragmentSize - headerLen
	// Reserve room for the trailing CRC in the last fragment.
	total := len(message) + crcLen
	count := (total + payloadPer - 1) / payloadPer
	if count > 255 {
		return nil, fmt.Errorf("transport: message of %d octets needs %d fragments (max 255)", len(message), count)
	}
	id := f.nextID
	f.nextID++

	crc := crc32.ChecksumIEEE(message)
	var trailer [crcLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	body := append(append([]byte(nil), message...), trailer[:]...)

	out := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		lo := i * payloadPer
		hi := lo + payloadPer
		if hi > len(body) {
			hi = len(body)
		}
		frag := make([]byte, headerLen, headerLen+hi-lo)
		frag[0] = id
		frag[1] = uint8(i)
		frag[2] = uint8(count)
		if i == count-1 {
			frag[3] = flagLast
		}
		frag = append(frag, body[lo:hi]...)
		out = append(out, frag)
	}
	m := metrics()
	m.messagesSplit.Inc()
	m.fragmentsSplit.Add(uint64(len(out)))
	return out, nil
}

// DefaultMaxPending is the partial-message bound a zero-value Reassembler
// enforces. The id space is 8-bit, so 256 is the natural ceiling; the
// default stays well under it so a lossy link cannot pin 256 maximal
// messages worth of fragments.
const DefaultMaxPending = 64

// Reassembler collects fragments (possibly out of order, possibly from
// interleaved messages) and emits completed messages. Its pending state is
// bounded: when a new message would exceed MaxPending the oldest partial
// message is evicted, and partial messages older than MaxAge are dropped
// on every Feed. Lost fragments therefore cost bounded memory instead of
// accumulating forever.
type Reassembler struct {
	// MaxPending bounds concurrently held partial messages. Zero selects
	// DefaultMaxPending; negative disables the count bound.
	MaxPending int
	// MaxAge evicts partial messages whose first fragment arrived more
	// than this long ago. Zero disables age eviction.
	MaxAge time.Duration
	// Clock overrides the time source (for tests). Nil selects time.Now.
	Clock func() time.Time

	pending map[uint8]*pendingMessage
	seq     uint64 // arrival order, for oldest-first eviction
}

type pendingMessage struct {
	count     int
	received  int
	parts     [][]byte
	firstSeen time.Time
	seq       uint64
}

func (r *Reassembler) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now()
}

// evict applies the age and count bounds. Called with the new fragment's
// id already inserted, so the newest message is never the eviction victim
// unless it is also the only one.
func (r *Reassembler) evict(now time.Time) {
	m := metrics()
	if r.MaxAge > 0 {
		for id, pm := range r.pending {
			if now.Sub(pm.firstSeen) > r.MaxAge {
				delete(r.pending, id)
				m.evictedAge.Inc()
			}
		}
	}
	limit := r.MaxPending
	if limit == 0 {
		limit = DefaultMaxPending
	}
	if limit < 0 {
		return
	}
	for len(r.pending) > limit {
		oldestID, oldestSeq := uint8(0), ^uint64(0)
		for id, pm := range r.pending {
			if pm.seq < oldestSeq {
				oldestID, oldestSeq = id, pm.seq
			}
		}
		delete(r.pending, oldestID)
		m.evictedOverflow.Inc()
	}
}

// Feed ingests one fragment. When it completes a message, the message is
// returned (otherwise nil). Corrupt or inconsistent fragments error.
func (r *Reassembler) Feed(frag []byte) ([]byte, error) {
	m := metrics()
	if len(frag) < headerLen+1 {
		m.failMalformed.Inc()
		return nil, fmt.Errorf("%w: fragment of %d octets too short", ErrMalformed, len(frag))
	}
	id, index, count := frag[0], int(frag[1]), int(frag[2])
	if count == 0 || index >= count {
		m.failMalformed.Inc()
		return nil, fmt.Errorf("%w: fragment %d/%d", ErrMalformed, index, count)
	}
	if r.pending == nil {
		r.pending = make(map[uint8]*pendingMessage)
	}
	now := r.now()
	pm := r.pending[id]
	if pm == nil {
		r.seq++
		pm = &pendingMessage{count: count, parts: make([][]byte, count), firstSeen: now, seq: r.seq}
		r.pending[id] = pm
		r.evict(now)
	} else {
		r.evict(now)
		if r.pending[id] == nil {
			// The fragment's own message just aged out; restart it.
			r.seq++
			pm = &pendingMessage{count: count, parts: make([][]byte, count), firstSeen: now, seq: r.seq}
			r.pending[id] = pm
		}
	}
	if pm.count != count {
		m.failMalformed.Inc()
		return nil, fmt.Errorf("%w: fragment count changed mid-message (%d vs %d)", ErrMalformed, count, pm.count)
	}
	if pm.parts[index] == nil {
		pm.parts[index] = append([]byte(nil), frag[headerLen:]...)
		pm.received++
		m.fragmentsReceived.Inc()
	} else {
		m.fragmentsDup.Inc()
	}
	if pm.received < pm.count {
		return nil, nil
	}
	delete(r.pending, id)
	var body []byte
	for _, p := range pm.parts {
		body = append(body, p...)
	}
	if len(body) < crcLen+1 {
		m.failMalformed.Inc()
		return nil, fmt.Errorf("%w: reassembled body too short", ErrMalformed)
	}
	message := body[:len(body)-crcLen]
	want := binary.LittleEndian.Uint32(body[len(body)-crcLen:])
	if crc32.ChecksumIEEE(message) != want {
		m.failChecksum.Inc()
		return nil, ErrChecksum
	}
	m.messagesDone.Inc()
	return message, nil
}

// PendingMessages reports how many partially received messages are held.
func (r *Reassembler) PendingMessages() int { return len(r.pending) }
