package codec

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestPrimitiveRoundtrip(t *testing.T) {
	var dst []byte
	dst = AppendUvarint(dst, 0)
	dst = AppendUvarint(dst, 1<<60)
	dst = AppendVarint(dst, -1)
	dst = AppendVarint(dst, math.MaxInt64)
	dst = AppendVarint(dst, math.MinInt64)
	dst = AppendByte(dst, 0xAB)
	dst = AppendUint32(dst, 0xDEADBEEF)
	dst = AppendFloat64(dst, math.Pi)
	dst = AppendFloat64(dst, math.Inf(-1))
	negZero := math.Copysign(0, -1)
	dst = AppendFloat64(dst, negZero)
	dst = AppendString(dst, "")
	dst = AppendString(dst, "hello, wörld")

	r := NewReader(dst)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Uvarint(); v != 1<<60 {
		t.Errorf("uvarint = %d", v)
	}
	if v := r.Varint(); v != -1 {
		t.Errorf("varint = %d", v)
	}
	if v := r.Varint(); v != math.MaxInt64 {
		t.Errorf("varint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("varint = %d", v)
	}
	if v := r.Byte(); v != 0xAB {
		t.Errorf("byte = %x", v)
	}
	if v := r.Uint32(); v != 0xDEADBEEF {
		t.Errorf("uint32 = %x", v)
	}
	if v := r.Float64(); v != math.Pi {
		t.Errorf("float64 = %v", v)
	}
	if v := r.Float64(); !math.IsInf(v, -1) {
		t.Errorf("float64 = %v, want -Inf", v)
	}
	// -0.0 must survive bit-exactly (== can't tell it from +0.0).
	if v := r.Float64(); math.Float64bits(v) != math.Float64bits(negZero) {
		t.Errorf("float64 bits = %x, want negative zero", math.Float64bits(v))
	}
	if v := r.String(); v != "" {
		t.Errorf("string = %q", v)
	}
	if v := r.String(); v != "hello, wörld" {
		t.Errorf("string = %q", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStringCopiesOutOfBuffer(t *testing.T) {
	buf := AppendString(nil, "alias-check")
	r := NewReader(buf)
	s := r.String()
	for i := range buf {
		buf[i] = 0xFF
	}
	if s != "alias-check" {
		t.Errorf("decoded string mutated with its source buffer: %q", s)
	}
}

// TestReaderHostileInputs drives each primitive into its failure path
// and checks the error is sticky, reported, and never a panic.
func TestReaderHostileInputs(t *testing.T) {
	cases := map[string]func(r *Reader){
		"byte-at-end":   func(r *Reader) { r.Byte() },
		"uint32-short":  func(r *Reader) { r.Uint32() },
		"float64-short": func(r *Reader) { r.Float64() },
		"uvarint-empty": func(r *Reader) { r.Uvarint() },
		"string-at-end": func(r *Reader) { _ = r.String() },
		"varint-unterminated": func(r *Reader) {
			r2 := NewReader(bytes.Repeat([]byte{0x80}, 11))
			r2.Varint()
			if r2.Err() == nil {
				panic("unterminated varint accepted")
			}
			r.Byte() // trip the outer reader too so the shared assertions hold
		},
	}
	for name, read := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewReader(nil)
			read(r)
			if r.Err() == nil {
				t.Fatal("no error on hostile input")
			}
			if !errors.Is(r.Err(), ErrCorrupt) {
				t.Errorf("error %v does not wrap ErrCorrupt", r.Err())
			}
			// Sticky: further reads keep failing with the first error.
			first := r.Err()
			r.Uvarint()
			_ = r.String()
			if r.Err() != first {
				t.Error("error not sticky")
			}
		})
	}
}

func TestLengthAndCountBombs(t *testing.T) {
	// A declared string length of 2^40 with 3 bytes present.
	buf := AppendUvarint(nil, 1<<40)
	buf = append(buf, 'a', 'b', 'c')
	r := NewReader(buf)
	if s := r.String(); s != "" || r.Err() == nil {
		t.Errorf("oversized length decoded: %q, err=%v", s, r.Err())
	}

	// A count of 2^40 elements at >=8 bytes each in a 10-byte input.
	buf = AppendUvarint(nil, 1<<40)
	buf = append(buf, make([]byte, 10)...)
	r = NewReader(buf)
	if n := r.Count(8); n != 0 || r.Err() == nil {
		t.Errorf("bomb count accepted: %d, err=%v", n, r.Err())
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Finish(); err == nil {
		t.Error("Finish accepted a trailing byte")
	}
}

func TestEntryRoundtripRaw(t *testing.T) {
	payload := []byte("small payload")
	entry := EncodeEntry(nil, 3, "key-1", payload, DefaultCompressThreshold)
	var scratch []byte
	got, info, err := DecodeEntry(entry, 3, "key-1", &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if info.Compressed {
		t.Error("payload below threshold was compressed")
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
	if info.RawLen != len(payload) || info.StoredLen != len(payload) {
		t.Errorf("info = %+v", info)
	}
}

func TestEntryRoundtripCompressed(t *testing.T) {
	payload := []byte(strings.Repeat("compressible-", 2048))
	entry := EncodeEntry(nil, 3, "key-2", payload, DefaultCompressThreshold)
	if len(entry) >= len(payload) {
		t.Errorf("entry (%d bytes) not smaller than payload (%d bytes)", len(entry), len(payload))
	}
	var scratch []byte
	got, info, err := DecodeEntry(entry, 3, "key-2", &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Compressed {
		t.Error("large compressible payload stored raw")
	}
	if !bytes.Equal(got, payload) {
		t.Error("compressed payload did not round-trip")
	}
	if info.RawLen != len(payload) || info.StoredLen >= len(payload) {
		t.Errorf("info = %+v for %d-byte payload", info, len(payload))
	}
}

func TestEncodeKeepsRawWhenCompressionLoses(t *testing.T) {
	// Incompressible payload above the threshold: flate output would be
	// larger, so the envelope must record and store the raw form.
	payload := make([]byte, 8192)
	x := uint32(2463534242)
	for i := range payload {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		payload[i] = byte(x)
	}
	entry := EncodeEntry(nil, 3, "k", payload, 0)
	var scratch []byte
	got, info, err := DecodeEntry(entry, 3, "k", &scratch)
	if err != nil {
		t.Fatal(err)
	}
	if info.Compressed {
		t.Error("incompressible payload stored compressed")
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload did not round-trip")
	}
}

func TestNegativeThresholdDisablesCompression(t *testing.T) {
	payload := []byte(strings.Repeat("x", 1<<16))
	entry := EncodeEntry(nil, 3, "k", payload, -1)
	if len(entry) < len(payload) {
		t.Error("compression ran despite threshold -1")
	}
}

func TestDecodeEntryRejections(t *testing.T) {
	payload := []byte(strings.Repeat("data", 4096))
	good := EncodeEntry(nil, 7, "the-key", payload, DefaultCompressThreshold)
	cases := map[string]struct {
		data   []byte
		schema uint64
		key    string
	}{
		"empty":        {nil, 7, "the-key"},
		"bad-magic":    {append([]byte("NOPE"), good[4:]...), 7, "the-key"},
		"wrong-schema": {good, 8, "the-key"},
		"wrong-key":    {good, 7, "other-key"},
		"truncated":    {good[:len(good)-5], 7, "the-key"},
		"header-only":  {good[:6], 7, "the-key"},
		"flipped-bit": {func() []byte {
			b := bytes.Clone(good)
			b[len(b)-1] ^= 1
			return b
		}(), 7, "the-key"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var scratch []byte
			_, _, err := DecodeEntry(tc.data, tc.schema, tc.key, &scratch)
			if err == nil {
				t.Fatal("hostile entry accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// FuzzDecodeEntry feeds arbitrary bytes through the envelope decoder:
// it must error or succeed, never panic, and a reported success must be
// internally consistent.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("UCXB"))
	f.Add(EncodeEntry(nil, 3, "seed", []byte("payload"), -1))
	f.Add(EncodeEntry(nil, 3, "seed", []byte(strings.Repeat("wide", 4096)), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var scratch []byte
		EntryKey(data) // must not panic on any input
		payload, info, err := DecodeEntry(data, 3, "seed", &scratch)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if len(payload) != info.RawLen {
			t.Errorf("payload is %d bytes but info says %d", len(payload), info.RawLen)
		}
		if info.RawLen > MaxDecodedLen {
			t.Errorf("decoded %d bytes past the bomb cap", info.RawLen)
		}
		if key, err := EntryKey(data); err != nil || key != "seed" {
			t.Errorf("EntryKey of a valid envelope = %q, %v; want the key it was decoded under", key, err)
		}
	})
}
