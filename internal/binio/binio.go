// Package binio is the little-endian binary encoding the warm-state
// serializers share (internal/cache, internal/bpred, internal/emu and
// the artifact container in internal/ckpt). It exists because
// encoding/json cannot round-trip this state faithfully (float64
// payloads, unexported fields) and encoding/gob is not stable across
// versions; a fixed hand-rolled layout is, and the checkpoint store's
// bit-identity contract depends on that stability.
//
// Writer appends; Reader consumes with sticky error tracking, so a
// decode is a straight-line sequence of reads followed by one Err()
// check — a truncated or corrupt buffer surfaces as ErrCorrupt instead
// of a panic.
package binio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt reports a truncated or malformed buffer.
var ErrCorrupt = errors.New("binio: truncated or corrupt data")

// Writer accumulates a little-endian byte buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer that appends to buf, so an encoder can
// reuse a buffer from an earlier encode by passing buf[:0].
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the accumulated buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the accumulated length.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits (exact round-trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Raw appends bytes verbatim.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader consumes a buffer written by Writer. After any read past the
// end, the error sticks and every subsequent read returns zero values.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the sticky error (nil, or ErrCorrupt after a short read).
func (r *Reader) Err() error { return r.err }

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf)-r.off { // not r.off+n, which can overflow
		r.err = ErrCorrupt
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte bool. Writer only writes 0 and 1; any other
// byte is corrupt, so that an accepted buffer re-encodes to itself.
func (r *Reader) Bool() bool {
	b := r.U8()
	if b > 1 {
		r.err = ErrCorrupt
	}
	return b == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Raw reads n bytes verbatim (nil after a short read).
func (r *Reader) Raw(n int) []byte {
	if n < 0 {
		r.err = ErrCorrupt
		return nil
	}
	return r.take(n)
}

// MaxRankWays is the widest set whose LRU ranks fit a byte each.
const MaxRankWays = 0xff

// CheckRanks validates the LRU ranks of a cache or branch target buffer
// that stores its replacement order as one byte per way: 0 for an
// invalid way, and 1..k ordering a set's k valid ways from least to
// most recently used. ranks holds consecutive sets of ways bytes each,
// the last of which may be shorter. Every set must hold each of the
// ranks 1..k exactly once, so that an accepted order re-encodes to the
// same bytes; a gap, a duplicate or a rank above k is corrupt. A set of
// more than MaxRankWays ways has ranks a byte cannot hold, and is
// refused whatever its bytes.
func CheckRanks(ranks []byte, ways int) error {
	if ways <= 0 || ways > MaxRankWays {
		return fmt.Errorf("binio: %d-way sets have no one-byte LRU ranks", ways)
	}
	for base := 0; base < len(ranks); base += ways {
		set := ranks[base:min(base+ways, len(ranks))]
		k := 0
		for _, r := range set {
			if r != 0 {
				k++
			}
		}
		var seen [4]uint64 // one bit per rank
		for _, r := range set {
			bit := uint64(1) << (r % 64)
			if r != 0 && (int(r) > k || seen[r/64]&bit != 0) {
				return ErrCorrupt
			}
			seen[r/64] |= bit
		}
	}
	return nil
}
