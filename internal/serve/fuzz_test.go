package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/serve"
)

// fuzzServer is shared across fuzz iterations: tiny limits so hostile
// bodies stay cheap, a small session LRU so the fuzzer cannot grow the
// table without bound, and sequential measurement.
var fuzzServer = struct {
	once sync.Once
	h    http.Handler
}{}

func fuzzLimits() serve.Limits {
	return serve.Limits{
		MaxBodyBytes:   1 << 16,
		MaxSourceBytes: 1 << 12,
		MaxSourceFiles: 4,
		MaxUnits:       4,
		MaxTenantLen:   16,
	}
}

func fuzzHandler() http.Handler {
	fuzzServer.once.Do(func() {
		fuzzServer.h = serve.New(serve.Config{
			Concurrency:   1,
			MaxConcurrent: 1,
			MaxSessions:   4,
			Limits:        fuzzLimits(),
		}).Handler()
	})
	return fuzzServer.h
}

// FuzzServeRequest throws hostile bodies at the daemon's full request
// path — JSON parse, validation, and (when the body happens to be a
// well-formed request) parsing and measuring the embedded design. The
// invariants: never panic, always answer with a real status code, and
// a 200 always carries a decodable response.
func FuzzServeRequest(f *testing.F) {
	f.Add([]byte(`{"tenant":"a","sources":{"m.v":"module m (input clk, output reg y); always @(posedge clk) begin y <= ~y; end endmodule"},"units":[{"top":"m"}]}`))
	f.Add([]byte(`{"sources":{"m.v":"module m"},"units":[{"top":"m","accounting":true}]}`))
	f.Add([]byte(`{"sources":{},"units":[]}`))
	f.Add([]byte(`{"tenant":"` + string(make([]byte, 64)) + `","sources":{"a":"b"},"units":[{"top":"x"}]}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":-5}`))
	f.Add([]byte(`{"sources":{"a":"b"},"units":[{"top":"x"}],"timeout_ms":9223372036855}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		// The parse/validate layer alone must never panic.
		if req, err := serve.ParseRequest(body, fuzzLimits()); err == nil && req == nil {
			t.Fatal("ParseRequest returned nil request and nil error")
		}

		// The full handler path: hostile bodies answer 4xx/5xx, valid
		// ones 200 with a decodable response — never a panic, never a
		// hung handler.
		r := httptest.NewRequest(http.MethodPost, "/measure", bytes.NewReader(body))
		w := httptest.NewRecorder()
		fuzzHandler().ServeHTTP(w, r)
		if w.Code < 200 || w.Code > 599 {
			t.Fatalf("handler answered impossible status %d", w.Code)
		}
		if w.Code == http.StatusOK {
			var resp serve.Response
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with undecodable JSON body: %v", err)
			}
		}
	})
}
