// Package codec implements the compact, schema-versioned,
// little-endian binary encoding the on-disk cache (internal/cache) and
// the planned ucserved wire protocol share. It replaces encoding/gob
// for every persisted type: encoders and decoders are explicit,
// per-type functions — no reflection anywhere on the hot path — and
// the decode side is defensive, returning an error (never panicking,
// never aliasing the input buffer into a decoded value) on arbitrary
// hostile bytes.
//
// The package has three layers:
//
//   - Primitives: append-style writers (AppendUvarint, AppendString,
//     ...) and a bounds-checked, sticky-error Reader whose allocation
//     helpers cap every count against the bytes actually present, so a
//     corrupt length prefix cannot force a huge allocation.
//   - Entry framing (entry.go): a versioned envelope with magic,
//     schema, key echo, CRC-32C over the stored payload, and optional
//     per-entry flate block compression chosen by a size threshold and
//     recorded in a flags byte.
//   - Typed codecs: the pointer-free SoA netlist encoding
//     (netlist.go) here, plus per-type codecs next to their types
//     (internal/measure, internal/elab) built from these primitives.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrCorrupt is the sentinel every decode failure wraps: callers that
// treat damaged input as a cache miss can test for just this.
var ErrCorrupt = errors.New("codec: corrupt input")

// Codec binds one Go type to its binary encoding. Append serializes v
// onto dst and returns the extended slice; Decode reads one value from
// the reader, allocating fresh memory for everything it returns (a
// decoded value never aliases the reader's buffer, which the caller is
// free to reuse).
type Codec[T any] struct {
	// Name tags diagnostics; it is not part of the encoding.
	Name   string
	Append func(dst []byte, v T) []byte
	Decode func(r *Reader) (T, error)
}

// ---------------------------------------------------------------
// Append-style encoders
// ---------------------------------------------------------------

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v zigzag-encoded (small magnitudes of either
// sign stay short — net-ID deltas are the main user).
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendByte appends one raw byte.
func AppendByte(dst []byte, b byte) []byte { return append(dst, b) }

// AppendUint32 appends v little-endian, fixed width (used for CRCs,
// where varint malleability would weaken the check).
func AppendUint32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendFloat64 appends the IEEE 754 bits little-endian, fixed width.
// Bit-exactness matters — cached metrics must round-trip to the exact
// float the measurement produced — so no decimal detour.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends a uvarint length prefix and the raw bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ---------------------------------------------------------------
// Reader
// ---------------------------------------------------------------

// Reader decodes the primitive layer with a sticky error: after the
// first malformed read every subsequent read returns a zero value, so
// decoders can run straight-line and check Err once per structure.
// Every length and count is validated against the bytes remaining
// before anything is allocated.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader over data. The Reader never mutates data
// and never hands out sub-slices of it: String and Raw copy.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, nil if none.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.off }

// fail records the first error; later reads keep returning zero.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, r.off, fmt.Sprintf(format, args...))
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.fail("unexpected end of input reading byte")
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned LEB128 value.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag-encoded signed value.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 4 {
		r.fail("unexpected end of input reading uint32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

// Float64 reads fixed-width IEEE 754 bits.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.fail("unexpected end of input reading float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

// String reads a length-prefixed string. The result is a fresh copy —
// it stays valid after the caller reuses the underlying buffer.
func (r *Reader) String() string { return string(r.view()) }

// view reads a length-prefixed byte string as a slice of the input,
// without copying: for values only compared, never kept.
func (r *Reader) view() []byte {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// lenPrefix reads a uvarint length and bounds it by the bytes present.
func (r *Reader) lenPrefix() int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Len()) {
		r.fail("length %d exceeds %d remaining bytes", n, r.Len())
		return 0
	}
	return int(n)
}

// Count reads a uvarint element count for a slice whose elements each
// occupy at least minBytesPerElem encoded bytes, and rejects counts
// the remaining input cannot possibly hold. This bounds every decode
// allocation by the input size, so a corrupt (or hostile) count cannot
// become a memory bomb.
func (r *Reader) Count(minBytesPerElem int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minBytesPerElem < 1 {
		minBytesPerElem = 1
	}
	if n > uint64(r.Len()/minBytesPerElem) {
		r.fail("count %d exceeds remaining input (%d bytes, >=%d per element)", n, r.Len(), minBytesPerElem)
		return 0
	}
	return int(n)
}

// Finish returns an error unless the input was consumed exactly:
// trailing bytes mean the payload belongs to a different (longer)
// format and must not be silently accepted.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes after value", ErrCorrupt, len(r.data)-r.off)
	}
	return nil
}
