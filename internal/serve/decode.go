package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unicode/utf16"
	"unicode/utf8"
)

// errTrailingData rejects a body with anything but whitespace after
// the request value.
var errTrailingData = errors.New("serve: trailing data after request JSON")

// decodeRequest decodes one request body in a single pass over it.
// It is written for the Request schema alone and gives what a
// json.Decoder with DisallowUnknownFields gives when decoding body
// into a Request: the same accept-or-reject decision, and an equal
// Request on accept (FuzzParseRequest holds it to that). The one
// deliberate difference is trailing data: json.Decoder.More reports
// no more input before a '}' or ']', so the old path accepted a body
// ending in a stray closing bracket; decodeRequest rejects every
// non-whitespace byte after the value.
//
// The encoding/json semantics it keeps: field names match as
// bytes.EqualFold matches them, and any other key is an error; null
// leaves a string, bool or integer field unchanged, sets sources or
// units to nil, stores "" as a sources value and leaves a units
// element unchanged; a repeated key decodes again into what the first
// left, so sources maps merge, a units array decodes over the previous
// one's elements in place, and scalars take the last value; strings
// decode every JSON escape, with invalid UTF-8 and unpaired surrogates
// becoming U+FFFD; timeout_ms takes a JSON integer that fits in int64.
// Every value of another type is rejected, so nothing is ever skipped
// and nesting never exceeds the schema's three levels.
func decodeRequest(data []byte) (*Request, error) {
	d := decoder{data: data}
	req := &Request{}
	d.skipSpace()
	if !d.null() {
		if d.peek() != '{' {
			return nil, fmt.Errorf("serve: bad request JSON: %w", d.unexpected("a request object"))
		}
		if err := d.object(func(key []byte) error {
			switch {
			case fieldIs(key, "tenant"):
				return d.stringField(&req.Tenant)
			case fieldIs(key, "sources"):
				return d.sources(&req.Sources)
			case fieldIs(key, "units"):
				return d.units(&req.Units)
			case fieldIs(key, "timeout_ms"):
				return d.int64Field(&req.TimeoutMS)
			}
			return fmt.Errorf("unknown field %q", key)
		}); err != nil {
			return nil, fmt.Errorf("serve: bad request JSON: %w", err)
		}
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return nil, errTrailingData
	}
	return req, nil
}

// decoder is one call's cursor over a request body.
type decoder struct {
	data []byte
	off  int
	buf  []byte // scratch for decoding strings that have escapes
}

// peek returns the next byte, or 0 at the end of the input (a NUL
// never starts a JSON token, so every caller rejects it).
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// unexpected reports the byte at the cursor where want was expected.
func (d *decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of input, want %s", want)
	}
	return fmt.Errorf("offset %d: unexpected %q, want %s", d.off, d.data[d.off], want)
}

// literal consumes word if the input continues with it.
func (d *decoder) literal(word string) bool {
	if len(d.data)-d.off >= len(word) && string(d.data[d.off:d.off+len(word)]) == word {
		d.off += len(word)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// fieldIs matches an object key against a field name the way
// encoding/json does: exactly, or else as bytes.EqualFold.
func fieldIs(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// object consumes the object whose '{' is next, calling member with
// each decoded key once the cursor is on that key's value. The key may
// be the decoder's scratch buffer, so it is valid only until member
// decodes the value.
func (d *decoder) object(member func(key []byte) error) error {
	d.off++
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.unexpected("':'")
		}
		d.off++
		d.skipSpace()
		if err := member(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case '}':
			d.off++
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// sources decodes the sources map. A repeated sources key decodes
// into the map the first one made.
func (d *decoder) sources(m *map[string]string) error {
	if d.null() {
		*m = nil
		return nil
	}
	if d.peek() != '{' {
		return d.unexpected("a sources object")
	}
	if *m == nil {
		*m = make(map[string]string)
	}
	return d.object(func(key []byte) error {
		name := string(key)
		var src string
		if err := d.stringField(&src); err != nil {
			return err
		}
		(*m)[name] = src
		return nil
	})
}

// units decodes the units array over *us the way encoding/json decodes
// into a slice: element i is decoded in place, reusing the backing
// array within its capacity, and the slice is then cut to the elements
// read (an empty array gives an empty, non-nil slice).
func (d *decoder) units(us *[]UnitRequest) error {
	if d.null() {
		*us = nil
		return nil
	}
	if d.peek() != '[' {
		return d.unexpected("a units array")
	}
	d.off++
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		*us = []UnitRequest{}
		return nil
	}
	s := *us
	for i := 0; ; i++ {
		if i == len(s) {
			if i < cap(s) {
				s = s[:i+1]
			} else {
				s = append(s, UnitRequest{})
			}
		}
		if err := d.unit(&s[i]); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case ']':
			d.off++
			*us = s[:i+1]
			return nil
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

func (d *decoder) unit(u *UnitRequest) error {
	if d.null() {
		return nil
	}
	if d.peek() != '{' {
		return d.unexpected("a unit object")
	}
	return d.object(func(key []byte) error {
		switch {
		case fieldIs(key, "top"):
			return d.stringField(&u.Top)
		case fieldIs(key, "accounting"):
			return d.boolField(&u.Accounting)
		}
		return fmt.Errorf("unknown unit field %q", key)
	})
}

func (d *decoder) stringField(p *string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.unexpected("a string")
	}
	b, err := d.str()
	if err != nil {
		return err
	}
	*p = string(b)
	return nil
}

func (d *decoder) boolField(p *bool) error {
	switch {
	case d.literal("true"):
		*p = true
	case d.literal("false"):
		*p = false
	case !d.null():
		return d.unexpected("a boolean")
	}
	return nil
}

// int64Field decodes a JSON integer that fits in int64. A fraction or
// an exponent is left unread, so the caller rejects it as the wrong
// byte after the value, even when the number is integral, as
// encoding/json rejects it for an int64 field.
func (d *decoder) int64Field(p *int64) error {
	if d.null() {
		return nil
	}
	neg := d.peek() == '-'
	if neg {
		d.off++
	}
	start := d.off
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	var n uint64
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		digit := uint64(d.data[d.off] - '0')
		if n > (limit-digit)/10 {
			return fmt.Errorf("offset %d: timeout_ms overflows int64", start)
		}
		n = n*10 + digit
		d.off++
	}
	switch digits := d.off - start; {
	case digits == 0:
		return d.unexpected("an integer")
	case digits > 1 && d.data[start] == '0':
		return fmt.Errorf("offset %d: integer with a leading zero", start)
	}
	if neg {
		*p = int64(-n) // -(1<<63) wraps to itself
	} else {
		*p = int64(n)
	}
	return nil
}

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// str consumes the string whose opening quote is next and returns
// its decoded bytes: a slice of the input when there is nothing to
// decode, else d.buf, valid until the next call. It decodes as
// encoding/json does: every JSON escape resolves, a \u surrogate pair
// combines, an unpaired surrogate or an invalid UTF-8 byte becomes
// U+FFFD, and a raw control byte is an error.
//
// Eight bytes at a time, it skips runs with no quote, backslash,
// control or non-ASCII byte, the bulk string scan of Langdale and
// Lemire's simdjson done with one 64-bit word for a vector register.
// Only what precedes an escape or an invalid byte is copied.
func (d *decoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i, run := start, start // run: the first byte not yet copied to buf
	buf, copied := d.buf[:0], false
	for {
		for i+8 <= len(data) {
			w := binary.LittleEndian.Uint64(data[i:])
			q := w ^ (lsb * '"')
			b := w ^ (lsb * '\\')
			// A byte's high bit is set for a quote or backslash (its
			// xor is 0, and 0-1 borrows), a control byte (c-0x20
			// borrows) or a non-ASCII byte; a borrow only sets bits
			// above a byte that is itself flagged, so the lowest
			// flagged byte is the first special one.
			special := ((q - lsb) | (b - lsb) | (w - lsb*0x20) | w) & msb
			if special != 0 {
				i += bits.TrailingZeros64(special) >> 3
				break
			}
			i += 8
		}
		if i >= len(data) {
			return nil, fmt.Errorf("offset %d: unterminated string", start-1)
		}
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			if !copied {
				return data[start:i], nil
			}
			d.buf = append(buf, data[run:i]...)
			return d.buf, nil
		case c == '\\':
			buf, copied = append(buf, data[run:i]...), true
			var err error
			if buf, i, err = unescape(buf, data, i); err != nil {
				return nil, err
			}
			run = i
		case c < 0x20:
			return nil, fmt.Errorf("offset %d: control byte %#02x in string", i, c)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				buf, copied = append(buf, data[run:i]...), true
				buf = utf8.AppendRune(buf, utf8.RuneError)
				run = i + 1
			}
			i += size
		}
	}
}

// unescape appends the value of the escape at data[i] to buf and
// returns the offset after it.
func unescape(buf, data []byte, i int) ([]byte, int, error) {
	if i+1 >= len(data) {
		return nil, 0, fmt.Errorf("offset %d: unterminated string", i)
	}
	switch c := data[i+1]; c {
	case '"', '\\', '/':
		return append(buf, c), i + 2, nil
	case 'b':
		return append(buf, '\b'), i + 2, nil
	case 'f':
		return append(buf, '\f'), i + 2, nil
	case 'n':
		return append(buf, '\n'), i + 2, nil
	case 'r':
		return append(buf, '\r'), i + 2, nil
	case 't':
		return append(buf, '\t'), i + 2, nil
	case 'u':
		r := hex4(data[i:])
		if r < 0 {
			return nil, 0, fmt.Errorf("offset %d: malformed \\u escape", i)
		}
		i += 6
		if utf16.IsSurrogate(r) {
			if pair := utf16.DecodeRune(r, hex4(data[i:])); pair != utf8.RuneError {
				r = pair
				i += 6
			} else {
				r = utf8.RuneError
			}
		}
		return utf8.AppendRune(buf, r), i, nil
	}
	return nil, 0, fmt.Errorf("offset %d: invalid escape %q", i, data[i:i+2])
}

// hex4 returns the code unit of the \uXXXX escape s starts with, or -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
