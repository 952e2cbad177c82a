// Package servetest is the in-process end-to-end harness for the
// ucserved daemon: it starts a serve.Server on a loopback listener,
// hands out typed JSON clients, and computes direct measure.Session
// reference results with the exact projection the server applies — so
// tests can assert that what came over the wire is bit-identical to
// measuring without the daemon.
package servetest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/designs"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/serve"
)

// Harness is one running daemon on a loopback listener.
type Harness struct {
	Server *serve.Server
	// URL is the base URL, e.g. "http://127.0.0.1:41234".
	URL string

	hs  *http.Server
	lis net.Listener
}

// Start launches cfg on 127.0.0.1:0 and registers cleanup with t. It
// works for benchmarks too (testing.TB).
func Start(t testing.TB, cfg serve.Config) *Harness {
	t.Helper()
	s := serve.New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("servetest: listen: %v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(lis)
	t.Cleanup(func() { hs.Close() })
	return &Harness{
		Server: s,
		URL:    "http://" + lis.Addr().String(),
		hs:     hs,
		lis:    lis,
	}
}

// Drain runs the daemon's graceful shutdown: flip into draining, then
// shut the HTTP layer down, which waits for in-flight handlers.
func (h *Harness) Drain(ctx context.Context) error {
	h.Server.StartDrain()
	return h.hs.Shutdown(ctx)
}

// Client speaks the daemon's JSON protocol.
type Client struct {
	Base string
	HTTP *http.Client
}

// Client returns a client for the harness.
func (h *Harness) Client() *Client {
	return &Client{Base: h.URL, HTTP: &http.Client{}}
}

// Status carries a non-200 outcome: the code and the error body.
type Status struct {
	Code       int
	Body       string
	RetryAfter string
}

func (s *Status) Error() string {
	return fmt.Sprintf("servetest: HTTP %d: %s", s.Code, s.Body)
}

// post sends one measurement request and decodes the response.
func (c *Client) post(ctx context.Context, path string, req *serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", serve.ContentTypeJSON)
	hres, err := c.HTTP.Do(hr)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(hres.Body)
	if err != nil {
		return nil, err
	}
	if hres.StatusCode != http.StatusOK {
		return nil, &Status{
			Code:       hres.StatusCode,
			Body:       string(bytes.TrimSpace(data)),
			RetryAfter: hres.Header.Get("Retry-After"),
		}
	}
	var resp serve.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("servetest: decode JSON response: %w", err)
	}
	return &resp, nil
}

// Measure POSTs /measure.
func (c *Client) Measure(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	return c.post(ctx, "/measure", req)
}

// Remeasure POSTs /remeasure.
func (c *Client) Remeasure(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	return c.post(ctx, "/remeasure", req)
}

// Healthz GETs /healthz and returns the status code.
func (c *Client) Healthz(ctx context.Context) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	hres, err := c.HTTP.Do(hr)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, hres.Body)
	hres.Body.Close()
	return hres.StatusCode, nil
}

// Metrics GETs /metrics.
func (c *Client) Metrics(ctx context.Context) (*serve.MetricsSnapshot, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	hres, err := c.HTTP.Do(hr)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("servetest: /metrics: HTTP %d", hres.StatusCode)
	}
	var m serve.MetricsSnapshot
	if err := json.NewDecoder(hres.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// WaitHealthy polls /healthz until it answers 200 or the deadline
// passes — for daemons whose listener just came up.
func (c *Client) WaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		code, err := c.Healthz(ctx)
		cancel()
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("servetest: daemon not healthy after %v (last: code=%d err=%v)", timeout, code, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Reference measures req's units directly through a fresh
// measure.Session — no daemon, no HTTP — and projects the results the
// way the server does. opts should match the server's effective
// options for the request's tenant (serve.Server uses Namespace
// "tenant/<name>"); the caller controls them so tests can also pin
// that namespacing itself never changes results.
func Reference(t testing.TB, req *serve.Request, opts measure.Options) []serve.UnitResult {
	t.Helper()
	design, err := hdl.ParseDesignParallel(req.Sources, opts.Concurrency)
	if err != nil {
		t.Fatalf("servetest: reference parse: %v", err)
	}
	sess := measure.NewSession(design)
	units := make([]measure.Unit, len(req.Units))
	for i, u := range req.Units {
		units[i] = measure.Unit{Top: u.Top, UseAccounting: u.Accounting}
	}
	results, err := sess.MeasureAll(units, opts)
	if err != nil {
		t.Fatalf("servetest: reference measure: %v", err)
	}
	return serve.ResultsOf(req.Units, results)
}

// ReferenceSynth reports how many distinct signatures a fresh direct
// session synthesizes for req with opts — the coalescing yardstick:
// N concurrent daemon clients on one tenant must not exceed it.
func ReferenceSynth(t testing.TB, req *serve.Request, opts measure.Options) int {
	t.Helper()
	design, err := hdl.ParseDesignParallel(req.Sources, opts.Concurrency)
	if err != nil {
		t.Fatalf("servetest: reference parse: %v", err)
	}
	sess := measure.NewSession(design)
	units := make([]measure.Unit, len(req.Units))
	for i, u := range req.Units {
		units[i] = measure.Unit{Top: u.Top, UseAccounting: u.Accounting}
	}
	if _, err := sess.MeasureAll(units, opts); err != nil {
		t.Fatalf("servetest: reference measure: %v", err)
	}
	return sess.Stats().Synthesized
}

// PaperRequest builds a request over the first k hand-written paper
// components (designs.Sources), accounting on — the real-world half of
// the e2e corpus mix.
func PaperRequest(t testing.TB, tenant string, k int) *serve.Request {
	t.Helper()
	sources := designs.Sources()
	all := designs.All()
	if k <= 0 || k > len(all) {
		k = len(all)
	}
	units := make([]serve.UnitRequest, k)
	for i := 0; i < k; i++ {
		units[i] = serve.UnitRequest{Top: all[i].Top, Accounting: true}
	}
	return &serve.Request{Tenant: tenant, Sources: sources, Units: units}
}

// GeneratedRequest builds a request over a generated corpus of n
// components — the synthetic half of the e2e corpus mix. Accounting
// stays off: generated components exercise volume and sharing, the
// paper set exercises the accounting procedure.
func GeneratedRequest(t testing.TB, tenant string, n int, seed uint64) *serve.Request {
	t.Helper()
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: n, Seed: seed})
	if err != nil {
		t.Fatalf("servetest: generate corpus: %v", err)
	}
	units := make([]serve.UnitRequest, len(corpus.Components))
	for i, c := range corpus.Components {
		units[i] = serve.UnitRequest{Top: c.Top}
	}
	return &serve.Request{Tenant: tenant, Sources: corpus.Files, Units: units}
}
