package serve_test

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// parkedConfig builds a config whose OnAdmitted seam parks every
// admitted request until the test releases it — the deterministic
// handle the drain and queue-full tests are built on.
func parkedConfig(concurrent, depth int) (serve.Config, chan string, chan struct{}) {
	admitted := make(chan string, 16)
	release := make(chan struct{}, 16)
	cfg := serve.Config{
		Concurrency:   1,
		MaxConcurrent: concurrent,
		QueueDepth:    depth,
		OnAdmitted: func(endpoint string) {
			admitted <- endpoint
			<-release
		},
	}
	return cfg, admitted, release
}

// TestDrainGraceful: SIGTERM semantics end to end. A request admitted
// before the drain runs to completion and answers 200; /healthz flips
// to 503 the moment the drain starts; new requests are refused with
// 503; and the HTTP shutdown returns once the in-flight handler is
// done.
func TestDrainGraceful(t *testing.T) {
	cfg, admitted, release := parkedConfig(2, 4)
	h := servetest.Start(t, cfg)
	cl := h.Client()
	req := servetest.PaperRequest(t, "alpha", 2)

	if code, err := cl.Healthz(context.Background()); err != nil || code != http.StatusOK {
		t.Fatalf("pre-drain healthz = %d, %v", code, err)
	}

	inflight := make(chan error, 1)
	go func() {
		_, err := cl.Measure(context.Background(), req)
		inflight <- err
	}()
	<-admitted // the request holds a slot and is parked mid-handler

	h.Server.StartDrain()

	if code, err := cl.Healthz(context.Background()); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, %v; want 503", code, err)
	}
	if _, err := cl.Measure(context.Background(), req); err == nil {
		t.Fatal("new request during drain succeeded, want 503")
	} else {
		var st *servetest.Status
		if !errors.As(err, &st) || st.Code != http.StatusServiceUnavailable {
			t.Fatalf("new request during drain: %v, want HTTP 503", err)
		}
	}

	// Release the parked in-flight request: it must complete normally
	// despite the drain.
	release <- struct{}{}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request during drain: %v, want success", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Drain(ctx); err != nil {
		t.Fatalf("drain shutdown: %v", err)
	}
	if m := h.Server.Metrics(); !m.Draining || m.Drained == 0 {
		t.Fatalf("post-drain metrics = draining:%t drained:%d", m.Draining, m.Drained)
	}
}

// TestQueueFull429: with the single slot parked and the depth-1 queue
// occupied, the next request is shed immediately with 429 and a
// Retry-After hint; once the slot frees, the queued request is served
// normally (FIFO, no starvation).
func TestQueueFull429(t *testing.T) {
	cfg, admitted, release := parkedConfig(1, 1)
	h := servetest.Start(t, cfg)
	cl := h.Client()
	req := servetest.PaperRequest(t, "alpha", 2)

	first := make(chan error, 1)
	go func() {
		_, err := cl.Measure(context.Background(), req)
		first <- err
	}()
	<-admitted // slot held, parked

	second := make(chan error, 1)
	go func() {
		_, err := cl.Measure(context.Background(), req)
		second <- err
	}()
	// Wait until the second request actually occupies the queue.
	for h.Server.Metrics().Queued != 1 {
		time.Sleep(time.Millisecond)
	}

	_, err := cl.Measure(context.Background(), req)
	var st *servetest.Status
	if !errors.As(err, &st) || st.Code != http.StatusTooManyRequests {
		t.Fatalf("over-depth request: %v, want HTTP 429", err)
	}
	if st.RetryAfter == "" {
		t.Fatal("429 response missing Retry-After")
	}

	release <- struct{}{} // first completes, slot hands to second
	if err := <-first; err != nil {
		t.Fatalf("parked first request: %v", err)
	}
	<-admitted // second now admitted
	release <- struct{}{}
	if err := <-second; err != nil {
		t.Fatalf("queued second request: %v, want success after hand-off", err)
	}
	if m := h.Server.Metrics(); m.Rejected != 1 || m.Measures != 2 {
		t.Fatalf("metrics rejected=%d measures=%d, want 1/2", m.Rejected, m.Measures)
	}
}

// TestRequestTimeoutCancelsSynthesis: a request whose timeout_ms
// expires mid-batch gets 504, and — the part that needs the ctx
// plumbing all the way down — synthesis actually stopped: the session
// synthesized strictly fewer signatures than the full batch needs.
// The same request without a timeout then succeeds on the same daemon
// with bit-identical results, proving the abandoned flights were
// evicted rather than left poisoning the shared table. Each admitted
// request is held 20 ms of its 30 ms budget, so the deadline falls
// early in a batch that takes tens of milliseconds on any host, not
// after it.
func TestRequestTimeoutCancelsSynthesis(t *testing.T) {
	req := servetest.GeneratedRequest(t, "alpha", 64, 9)
	opts := measure.Options{Concurrency: 1}
	ref := servetest.Reference(t, req, opts)
	fullSynth := servetest.ReferenceSynth(t, req, opts)

	h := servetest.Start(t, serve.Config{
		Concurrency:   1,
		MaxConcurrent: 2,
		OnAdmitted:    func(string) { time.Sleep(20 * time.Millisecond) },
	})
	cl := h.Client()

	timed := &serve.Request{Tenant: req.Tenant, Sources: req.Sources, Units: req.Units, TimeoutMS: 30}
	_, err := cl.Measure(context.Background(), timed)
	var st *servetest.Status
	if !errors.As(err, &st) || st.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed request: %v, want HTTP 504", err)
	}

	m := h.Server.Metrics()
	if m.Timeouts == 0 {
		t.Fatal("timeout not counted in metrics")
	}
	if m.Session.Synthesized >= fullSynth {
		t.Fatalf("timeout did not stop synthesis: %d signatures synthesized, full batch needs %d",
			m.Session.Synthesized, fullSynth)
	}

	// Recovery on the same daemon and session: full batch, no
	// timeout, bit-identical to the direct reference.
	resp, err := cl.Measure(context.Background(), req)
	if err != nil {
		t.Fatalf("post-timeout request: %v", err)
	}
	compareResults(t, "post-timeout recovery", resp.Results, ref)
}

// TestHugeTimeoutKeepsServerCeiling: a timeout_ms too large for a
// time.Duration would wrap negative and drop the server's
// RequestTimeout. ParseRequest accepts the largest representable value
// and rejects the next one with 400, so the ceiling always holds.
func TestHugeTimeoutKeepsServerCeiling(t *testing.T) {
	h := servetest.Start(t, serve.Config{
		Concurrency:    1,
		RequestTimeout: 20 * time.Millisecond,
		OnAdmitted:     func(string) { time.Sleep(100 * time.Millisecond) },
	})
	cl := h.Client()
	req := servetest.PaperRequest(t, "alpha", 1)
	for _, tc := range []struct {
		timeoutMS int64
		want      int
	}{
		{0, http.StatusGatewayTimeout},
		{60000, http.StatusGatewayTimeout},
		{9223372036854, http.StatusGatewayTimeout},
		{9223372036855, http.StatusBadRequest},
	} {
		timed := &serve.Request{Tenant: req.Tenant, Sources: req.Sources, Units: req.Units, TimeoutMS: tc.timeoutMS}
		_, err := cl.Measure(context.Background(), timed)
		var st *servetest.Status
		if !errors.As(err, &st) || st.Code != tc.want {
			t.Errorf("timeout_ms %d: %v, want HTTP %d", tc.timeoutMS, err, tc.want)
		}
	}
}
