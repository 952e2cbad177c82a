package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/designs"
)

// jsonDecodeRequest is the reference decoder decodeRequest replaced: a
// json.Decoder with DisallowUnknownFields, then More to look for
// trailing data. It reports trailingBracket when it accepted a body
// that still held a '}' or ']' after the value, which More does not
// count as more input.
func jsonDecodeRequest(body []byte) (req *Request, trailingBracket bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	req = &Request{}
	if err := dec.Decode(req); err != nil {
		return nil, false, err
	}
	if dec.More() {
		return nil, false, errTrailingData
	}
	rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")
	return req, len(rest) > 0, nil
}

// corpusBody is the paper-corpus request the served benchmark sends:
// all 18 components' sources, every unit with accounting, encoded by
// json.Marshal (so '<', '>' and '&' arrive as \u escapes).
func corpusBody(tb testing.TB) []byte {
	tb.Helper()
	req := Request{Tenant: "bench", Sources: designs.Sources()}
	for _, c := range designs.All() {
		req.Units = append(req.Units, UnitRequest{Top: c.Top, Accounting: true})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeSeeds pin the encoding/json semantics decodeRequest keeps.
var decodeSeeds = []string{
	`{"sources":{"a":"b"},"units":[{"top":"x"}]}`,
	// escapes: every short escape, surrogate pairs, lone and
	// mismatched surrogates, a surrogate spelled in UTF-8, and invalid
	// UTF-8 bytes
	`{"sources":{"a":"\"\\\/\b\f\n\r\t\u003c\u00E9\u20ac\u0000é€😀"},"units":[{"top":"x"}]}`,
	`{"sources":{"a":"\ud83d\ude00 \uD83D\uDE00x\ud800 \udc00 \ud800A \ud800\u0041 \udc00\ud800 \ud800\ud800\udc00 \ud800𐀀 \ud800"},"units":[{"top":"x"}]}`,
	"{\"sources\":{\"a\\u00ff\":\"\xff\xfe ok \xe2\x82 \xed\xa0\x80 \xef\xbf\xbd \xf0\x9f\x98\x80\"},\"units\":[{\"top\":\"x\"}]}",
	`{"sources":{"a":"\x"},"units":[{"top":"x"}]}`,
	`{"sources":{"a":"\u12"},"units":[{"top":"x"}]}`,
	`{"sources":{"a":"\u12G4"},"units":[{"top":"x"}]}`,
	"{\"sources\":{\"a\":\"tab\there\"},\"units\":[{\"top\":\"x\"}]}",
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"tenant":"unterminated`,
	// case-folded and escaped keys: U+017F folds to 's', U+212A to 'k'
	`{"SOURCES":{"a":"b"},"Units":[{"TOP":"x","ACCOUNTING":true}],"Tenant":"t","TIMEOUT_MS":5}`,
	`{"ſources":{"a":"b"},"unitſ":[{"top":"x"}],"tenant":"t"}`,
	`{"sources":{"a":"b"},"units":[{"top":"x","accountinG":true}],"timeout_mſ":1}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"tenantK":"t"}`,
	// unknown fields, at the top and inside a unit, including deep
	// nesting and a nested value whose syntax is broken
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"extra":1}`,
	`{"sources":{"a":"b"},"units":[{"top":"x","extra":true}]}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"deep":` + strings.Repeat("[", 20000) + strings.Repeat("]", 20000) + `}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"deep":[[[{"a":}]]]}`,
	// duplicate keys
	`{"sources":{"a":"b"},"sources":{"c":"d","a":"e"},"units":[{"top":"x"}],"tenant":"t1","tenant":"t2"}`,
	`{"sources":{"a":"b"},"units":[{"top":"x","accounting":true},{"top":"y"}],"units":[{"top":"z"}]}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"},{"top":"y"}],"units":[{"top":"z"}],"units":[null,null]}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"units":[],"units":[null]}`,
	`{"sources":{"a":"b"},"units":[{"top":"x","top":"y","accounting":true,"accounting":false}]}`,
	// nulls
	`null`,
	` null `,
	`{"tenant":null,"timeout_ms":null,"sources":{"a":null},"units":[null,{"top":null,"accounting":null},{"top":"x"}]}`,
	`{"tenant":"t","tenant":null,"timeout_ms":7,"timeout_ms":null,"sources":{"a":"b"},"units":[{"top":"x","accounting":true,"accounting":null}]}`,
	`{"sources":{"a":"b"},"sources":null,"units":[{"top":"x"}]}`,
	`{"sources":null,"sources":{"a":"b"},"units":[{"top":"x"}],"units":null}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"tenant":nul}`,
	// timeout_ms
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":1.5}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":-0}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":1e3}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":1E3}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":1.0}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":9223372036854775807}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":9223372036854775808}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":-9223372036854775808}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":-9223372036854775809}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":99999999999999999999999}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":012}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":-}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":"5"}`,
	// wrong types and broken syntax
	`{"sources":[],"units":[{"top":"x"}]}`,
	`{"sources":{"a":1},"units":[{"top":"x"}]}`,
	`{"sources":{"a":"b"},"units":{"top":"x"}}`,
	`{"sources":{"a":"b"},"units":["x"]}`,
	`{"sources":{"a":"b"},"units":[{"top":1}]}`,
	`{"sources":{"a":"b"},"units":[{"top":"x","accounting":"true"}]}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"},]}`,
	`{"sources":{"a":"b",},"units":[{"top":"x"}]}`,
	`{"sources":{"a":"b"} "units":[{"top":"x"}]}`,
	`{"sources":{"a" "b"},"units":[{"top":"x"}]}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}]`,
	`{}`,
	`[]`,
	`"x"`,
	`5`,
	``,
	" \t\r\n",
	// a byte-order mark is not JSON whitespace
	"\xef\xbb\xbf{\"sources\":{\"a\":\"b\"},\"units\":[{\"top\":\"x\"}]}",
	// trailing data: whitespace is fine, anything else is not
	"{\"sources\":{\"a\":\"b\"},\"units\":[{\"top\":\"x\"}]} \n\t\r",
	`{"sources":{"a":"b"},"units":[{"top":"x"}]}}`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}]}]`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}]} x`,
	`{"sources":{"a":"b"},"units":[{"top":"x"}]} {}`,
	`null]`,
}

// checkDecode holds decodeRequest to the reference decoder on one body:
// the same decision, and equal requests on accept. The one allowed
// divergence is a stray closing bracket after the value, which the
// reference accepts and decodeRequest must reject as trailing data.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeRequest(body)
	want, trailingBracket, wantErr := jsonDecodeRequest(body)
	switch {
	case trailingBracket:
		if !errors.Is(err, errTrailingData) {
			t.Fatalf("body %q: trailing bracket: got %+v, %v; want the trailing-data error", body, got, err)
		}
	case (err == nil) != (wantErr == nil):
		t.Fatalf("body %q: got error %v, reference error %v", body, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q: got %#v, reference %#v", body, got, want)
	case err != nil && got != nil:
		t.Fatalf("body %q: error %v with a non-nil request", body, err)
	}
}

func TestDecodeRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range decodeSeeds {
		checkDecode(t, []byte(body))
	}
	checkDecode(t, corpusBody(t))
}

// TestParseRequestTrailingData: a value followed by anything but
// whitespace is rejected, a stray closing bracket included (json.Decoder
// More reports no more input before '}' or ']', so the encoding/json
// path accepted those two).
func TestParseRequestTrailingData(t *testing.T) {
	const valid = `{"sources":{"a":"b"},"units":[{"top":"x"}]}`
	if _, err := ParseRequest([]byte(valid+" \n"), Limits{}); err != nil {
		t.Fatalf("valid body with trailing whitespace: %v", err)
	}
	for _, trailing := range []string{"}", "]", " x", " {}"} {
		req, err := ParseRequest([]byte(valid+trailing), Limits{})
		if err == nil || req != nil {
			t.Errorf("body ending %q: accepted (%+v)", trailing, req)
		} else if !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("body ending %q: %v, want a trailing-data error", trailing, err)
		}
	}
}

// firstRead records the buffer offered to a reader's first Read.
type firstRead struct {
	r     io.Reader
	first []byte
}

func (f *firstRead) Read(p []byte) (int, error) {
	if f.first == nil {
		f.first = p
	}
	return f.r.Read(p)
}

// TestReadBody: a body is read whole, into the one buffer first offered
// when it is as long as declared, and a declared length beyond
// maxBodyPresize reserves no more than that.
func TestReadBody(t *testing.T) {
	for _, c := range []struct{ n, declared int64 }{
		{3, -1},
		{3, 0},
		{3, 3},
		{2000, 3},
		{60000, 60000},
		{maxBodyPresize + 100, maxBodyPresize + 100},
		{3, 1 << 40},
	} {
		body := bytes.Repeat([]byte("x"), int(c.n))
		r := &firstRead{r: bytes.NewReader(body)}
		got, err := readBody(r, c.declared)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%d bytes declared as %d: read %d bytes, %v", c.n, c.declared, len(got), err)
		}
		if c.declared == c.n && c.n <= maxBodyPresize && &got[0] != &r.first[0] {
			t.Errorf("%d bytes declared as %d: the buffer was regrown", c.n, c.declared)
		}
		if c.declared > maxBodyPresize && len(r.first) > maxBodyPresize+64<<10 {
			t.Errorf("%d bytes declared as %d: first read offered %d bytes", c.n, c.declared, len(r.first))
		}
	}
}

// TestBodyLimit: a body over MaxBodyBytes is a 400, whatever length it
// declares.
func TestBodyLimit(t *testing.T) {
	h := New(Config{Limits: Limits{MaxBodyBytes: 64}}).Handler()
	body := []byte(`{"sources":{"a":"` + strings.Repeat("x", 100) + `"},"units":[{"top":"x"}]}`)
	for _, declared := range []int64{int64(len(body)), 32, -1} {
		r := httptest.NewRequest(http.MethodPost, "/measure", bytes.NewReader(body))
		r.ContentLength = declared
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%d-byte body declared as %d: status %d, want 400", len(body), declared, w.Code)
		}
	}
}

// FuzzParseRequest is the differential fuzzer for decodeRequest, with
// encoding/json as the oracle (checkDecode). It also runs the full
// ParseRequest, which must never panic or return nil with nil error.
func FuzzParseRequest(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add([]byte(body))
	}
	f.Add(corpusBody(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
		if req, err := ParseRequest(body, Limits{}); err == nil && req == nil {
			t.Fatal("ParseRequest returned nil request and nil error")
		}
	})
}

// BenchmarkParseRequest decodes and validates the paper-corpus body a
// served /measure carries.
func BenchmarkParseRequest(b *testing.B) {
	body := corpusBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseRequest(body, Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}
