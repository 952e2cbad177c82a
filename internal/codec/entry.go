package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Entry envelope ("UCXB" frame). Layout, in order:
//
//	magic   4 bytes  "UCXB"
//	schema  uvarint  caller's schema version (cache.SchemaVersion)
//	flags   1 byte   compression: 0 = raw, 1 = flate
//	key     uvarint length + bytes, echo of the entry's key
//	rawLen  uvarint  payload length before compression
//	crc     4 bytes  CRC-32C (Castagnoli) of the stored payload, LE
//	payload rest of the buffer (flate-compressed when flags says so)
//
// The envelope is the body of one cache record. The key echo is what a
// segment scan indexes the record under and catches a record read from
// the wrong place, the CRC catches bit rot and truncation inside the
// payload, rawLen lets the decoder pre-size its output buffer and
// doubles as the compression-bomb bound: a flate payload may not
// inflate past rawLen, and rawLen itself is capped by MaxDecodedLen.

// EntryMagic identifies the envelope format.
const EntryMagic = "UCXB"

// Compression flag values recorded in the envelope.
const (
	CompressNone  byte = 0
	CompressFlate byte = 1
)

// MaxDecodedLen caps the declared decompressed size of one entry
// (64 MiB — two orders of magnitude above the largest real cache
// entry). A declared rawLen beyond it is rejected before any
// allocation, so a hostile envelope cannot turn a few compressed
// bytes into an arbitrarily large buffer.
const MaxDecodedLen = 64 << 20

// DefaultCompressThreshold is the payload size at which EncodeEntry
// starts trying flate. Below it the flate header and the extra decode
// pass cost more than the bytes they save (small entries are metric
// vectors that barely compress); above it entries are
// netlist-dominated and shrink 2-4x.
const DefaultCompressThreshold = 4096

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EntryInfo describes a decoded envelope.
type EntryInfo struct {
	Compressed bool
	StoredLen  int // payload bytes as stored (possibly compressed)
	RawLen     int // payload bytes after decompression
}

// flate writers and readers are pooled: both allocate tens of
// kilobytes of window/huffman state on construction and both support
// Reset, so steady-state encode/decode is allocation-free apart from
// the output buffers.
var flateWriters = sync.Pool{New: func() any {
	// BestSpeed: the cache is decode-bound; encode happens once per
	// cold entry and level 1 already captures most of the win on
	// varint-packed payloads.
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // unreachable: the level is a valid constant
	}
	return w
}}

var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// EncodeEntry appends the envelope for payload onto dst and returns
// the extended slice. The payload is flate-compressed when it is at
// least threshold bytes long and compression actually wins (the
// smaller form is kept, recorded in the flags byte); a negative
// threshold disables compression entirely.
func EncodeEntry(dst []byte, schema uint64, key string, payload []byte, threshold int) []byte {
	flags := CompressNone
	stored := payload
	if threshold >= 0 && len(payload) >= threshold {
		var buf bytes.Buffer
		buf.Grow(len(payload) / 2)
		w := flateWriters.Get().(*flate.Writer)
		w.Reset(&buf)
		// Writes to a bytes.Buffer cannot fail, so neither can these.
		w.Write(payload)
		w.Close()
		flateWriters.Put(w)
		if buf.Len() < len(payload) {
			flags = CompressFlate
			stored = buf.Bytes()
		}
	}
	dst = append(dst, EntryMagic...)
	dst = AppendUvarint(dst, schema)
	dst = AppendByte(dst, flags)
	dst = AppendString(dst, key)
	dst = AppendUvarint(dst, uint64(len(payload)))
	dst = AppendUint32(dst, crc32.Checksum(stored, crcTable))
	return append(dst, stored...)
}

// EntryKey returns the key an envelope echoes, reading only its
// header: a segment scan indexes the record under it, then validates
// the whole envelope against it with DecodeEntry.
func EntryKey(data []byte) (string, error) {
	if !bytes.HasPrefix(data, []byte(EntryMagic)) {
		return "", fmt.Errorf("%w: bad entry magic", ErrCorrupt)
	}
	r := NewReader(data[len(EntryMagic):])
	r.Uvarint() // schema
	r.Byte()    // flags
	key := r.String()
	return key, r.Err()
}

// DecodeEntry validates the envelope of data against the expected
// schema and key and returns the raw (decompressed) payload. The
// payload aliases either data (uncompressed entries) or *scratch
// (compressed entries, decompressed into the scratch buffer, which is
// grown as needed and left for the caller to reuse) — it is only
// valid until the caller recycles those buffers, which is safe
// because typed decoders copy everything they return.
//
// Every failure — wrong magic, schema or key mismatch, truncation,
// CRC mismatch, a declared size past MaxDecodedLen, or a flate stream
// that does not inflate to exactly rawLen — is reported as an error
// wrapping ErrCorrupt.
func DecodeEntry(data []byte, schema uint64, key string, scratch *[]byte) ([]byte, EntryInfo, error) {
	var info EntryInfo
	if len(data) < len(EntryMagic) || string(data[:len(EntryMagic)]) != EntryMagic {
		return nil, info, fmt.Errorf("%w: bad entry magic", ErrCorrupt)
	}
	r := NewReader(data)
	r.off = len(EntryMagic)
	gotSchema := r.Uvarint()
	flags := r.Byte()
	gotKey := r.view()
	rawLen := r.Uvarint()
	crc := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, info, fmt.Errorf("entry header: %w", err)
	}
	if gotSchema != schema {
		return nil, info, fmt.Errorf("%w: entry schema %d, want %d", ErrCorrupt, gotSchema, schema)
	}
	if string(gotKey) != key {
		return nil, info, fmt.Errorf("%w: entry key mismatch", ErrCorrupt)
	}
	if rawLen > MaxDecodedLen {
		return nil, info, fmt.Errorf("%w: declared payload size %d exceeds cap %d", ErrCorrupt, rawLen, MaxDecodedLen)
	}
	stored := data[r.off:]
	if crc32.Checksum(stored, crcTable) != crc {
		return nil, info, fmt.Errorf("%w: payload CRC mismatch", ErrCorrupt)
	}
	info.StoredLen = len(stored)
	info.RawLen = int(rawLen)

	switch flags {
	case CompressNone:
		if uint64(len(stored)) != rawLen {
			return nil, info, fmt.Errorf("%w: raw payload is %d bytes, header says %d", ErrCorrupt, len(stored), rawLen)
		}
		return stored, info, nil
	case CompressFlate:
		info.Compressed = true
		out := growScratch(scratch, int(rawLen))
		fr := flateReaders.Get().(io.ReadCloser)
		defer flateReaders.Put(fr)
		if err := fr.(flate.Resetter).Reset(bytes.NewReader(stored), nil); err != nil {
			return nil, info, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if _, err := io.ReadFull(fr, out); err != nil {
			return nil, info, fmt.Errorf("%w: flate payload shorter than declared: %v", ErrCorrupt, err)
		}
		// The stream must end exactly at rawLen: extra hidden bytes
		// would mean the declared size lied (the bomb cap depends on
		// rawLen being honest).
		var one [1]byte
		if n, err := fr.Read(one[:]); n != 0 || err != io.EOF {
			return nil, info, fmt.Errorf("%w: flate payload longer than declared %d bytes", ErrCorrupt, rawLen)
		}
		return out, info, nil
	default:
		return nil, info, fmt.Errorf("%w: unknown compression flag %d", ErrCorrupt, flags)
	}
}

// growScratch returns a length-n view of *buf, reallocating only when
// capacity is short (the cache's decode path calls this with one
// long-lived buffer per scratch holder).
func growScratch(buf *[]byte, n int) []byte {
	s := *buf
	if cap(s) < n {
		s = make([]byte, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}
