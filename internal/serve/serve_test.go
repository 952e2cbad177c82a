package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
)

// compareResults asserts the wire results are bit-identical to the
// direct-session reference projection.
func compareResults(t *testing.T, label string, got, ref []serve.UnitResult) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d results, reference has %d", label, len(got), len(ref))
	}
	for i := range ref {
		if !reflect.DeepEqual(got[i], ref[i]) {
			t.Errorf("%s: unit %s differs from direct measurement:\n  wire: %+v\n  ref:  %+v",
				label, ref[i].Top, got[i], ref[i])
		}
	}
}

// TestServedMatchesDirect is the core e2e equivalence matrix: the
// daemon's JSON answers, at measurement workers 1 and 8, over a mixed
// corpus (hand-written paper components with accounting + a generated
// corpus without), must be bit-identical to a direct measure.Session
// on the same sources.
func TestServedMatchesDirect(t *testing.T) {
	paper := servetest.PaperRequest(t, "alpha", 6)
	gen := servetest.GeneratedRequest(t, "alpha", 10, 7)
	refs := map[*serve.Request]map[int][]serve.UnitResult{paper: {}, gen: {}}
	for _, workers := range []int{1, 8} {
		for req := range refs {
			refs[req][workers] = servetest.Reference(t, req, measure.Options{Concurrency: workers})
		}
	}
	// Workers must not change the answer either; pin that on the
	// reference side once so the matrix below can compare per-worker.
	for req, byWorkers := range refs {
		if !reflect.DeepEqual(byWorkers[1], byWorkers[8]) {
			t.Fatalf("direct reference differs between 1 and 8 workers for %s", req.Units[0].Top)
		}
	}

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers1-json", 1},
		{"workers8-json", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := servetest.Start(t, serve.Config{Concurrency: tc.workers, MaxConcurrent: 4})
			cl := h.Client()
			for req, byWorkers := range refs {
				resp, err := cl.Measure(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Tenant != "alpha" {
					t.Fatalf("response tenant %q", resp.Tenant)
				}
				compareResults(t, tc.name, resp.Results, byWorkers[tc.workers])
			}
		})
	}
}

// TestBinaryAcceptGetsJSON: the daemon has one response encoding. A
// client that still asks for the retired binary framing gets JSON,
// labelled as such, that decodes to the same results.
func TestBinaryAcceptGetsJSON(t *testing.T) {
	h := servetest.Start(t, serve.Config{Concurrency: 1})
	req := servetest.PaperRequest(t, "alpha", 2)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, h.URL+"/measure", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Accept", "application/x-ucserve-bin")
	hres, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", hres.StatusCode)
	}
	if ct := hres.Header.Get("Content-Type"); ct != serve.ContentTypeJSON {
		t.Fatalf("Content-Type %q, want %q", ct, serve.ContentTypeJSON)
	}
	var resp serve.Response
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	compareResults(t, "binary Accept", resp.Results, servetest.Reference(t, req, measure.Options{Concurrency: 1}))
}

// TestServedCacheColdWarm: a daemon over a disk cache serves a cold
// request, and a *restarted* daemon over the same directory serves the
// same request entirely from disk (no planning, no synthesis) with
// bit-identical results.
func TestServedCacheColdWarm(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := servetest.GeneratedRequest(t, "alpha", 8, 3)
	ref := servetest.Reference(t, req, measure.Options{Concurrency: 4})

	h1 := servetest.Start(t, serve.Config{Concurrency: 4, Cache: c})
	cold, err := h1.Client().Measure(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "cold", cold.Results, ref)
	if cold.Session.Synthesized == 0 {
		t.Fatal("cold request synthesized nothing — cache was not actually cold")
	}

	// A fresh daemon process (same cache dir) must answer from disk:
	// the session plans every unit from the search and sig records,
	// reads each of them once, and never synthesizes a signature.
	before := c.Stats()
	h2 := servetest.Start(t, serve.Config{Concurrency: 4, Cache: c})
	warm, err := h2.Client().Measure(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "warm", warm.Results, ref)
	if warm.Session.Planned != len(req.Units) || warm.Session.Synthesized != 0 {
		t.Fatalf("warm restart planned %d / synthesized %d, want %d/0 (disk-served)",
			warm.Session.Planned, warm.Session.Synthesized, len(req.Units))
	}
	if after := c.Stats(); after.Misses != before.Misses || after.Puts != before.Puts || after.Hits-before.Hits != before.Puts {
		t.Errorf("warm restart: %d hits, %d misses, %d puts; want every one of the cold run's %d records read once",
			after.Hits-before.Hits, after.Misses-before.Misses, after.Puts-before.Puts, before.Puts)
	}
}

// TestConcurrentClientsTwoTenants is the headline e2e test: 8
// concurrent clients across two tenants, over one shared daemon and
// one shared disk cache. Every client's answer is bit-identical to the
// direct reference, and the aggregate synthesis count is EXACTLY twice
// the single-tenant reference count — simultaneously proving the
// single-flight table coalesced each tenant's 4 clients into one
// synthesis per signature (≤) and that the tenants' cache namespaces
// never cross-contaminated (≥: had tenant B been able to read tenant
// A's entries, B would have synthesized strictly less).
func TestConcurrentClientsTwoTenants(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reqA := servetest.GeneratedRequest(t, "tenant-a", 8, 5)
	reqB := servetest.GeneratedRequest(t, "tenant-b", 8, 5)
	opts := measure.Options{Concurrency: 2}
	ref := servetest.Reference(t, reqA, opts)
	refSynth := servetest.ReferenceSynth(t, reqA, opts)

	h := servetest.Start(t, serve.Config{
		Concurrency:   2,
		MaxConcurrent: 8,
		QueueDepth:    16,
		Cache:         c,
	})

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := reqA
			if i%2 == 1 {
				req = reqB
			}
			cl := h.Client()
			resp, err := cl.Measure(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			for j := range ref {
				if !reflect.DeepEqual(resp.Results[j], ref[j]) {
					errs[i] = fmt.Errorf("client %d (tenant %s): unit %s differs from direct measurement",
						i, req.Tenant, ref[j].Top)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	m := h.Server.Metrics()
	if m.Session.Synthesized != 2*refSynth {
		t.Fatalf("aggregate synthesized %d, want exactly %d (= 2 tenants x %d reference signatures): "+
			"less means tenant namespaces leaked cache entries, more means single-flight coalescing broke",
			m.Session.Synthesized, 2*refSynth, refSynth)
	}
	if m.Sessions != 2 || m.Tenants != 2 {
		t.Fatalf("sessions=%d tenants=%d, want 2/2 (one shared session per tenant)", m.Sessions, m.Tenants)
	}
	if m.Measures != clients {
		t.Fatalf("measures=%d, want %d", m.Measures, clients)
	}

	// Warm cross-check: a restarted daemon on the same cache serves
	// tenant A from disk — and the hits it takes are A's own entries.
	h2 := servetest.Start(t, serve.Config{Concurrency: 2, Cache: c})
	resp, err := h2.Client().Measure(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "tenant-a warm restart", resp.Results, ref)
	if resp.Session.Synthesized != 0 {
		t.Fatalf("warm restart synthesized %d, want 0", resp.Session.Synthesized)
	}
}

// TestServedRemeasureRollsBaseline: /remeasure over the daemon keeps a
// per-tenant rolling baseline — the first call measures cold (no
// baseline), an identical second call reuses everything, and an edited
// design re-measures only the dirty cone (a netlist-neutral edit's
// cone through the early cutoff), every answer bit-identical to direct
// measurement of the edited sources.
func TestServedRemeasureRollsBaseline(t *testing.T) {
	h := servetest.Start(t, serve.Config{Concurrency: 2})
	cl := h.Client()
	// Hand-picked unit set that includes rat_standard, so the edit
	// below (inside RAT-Standard.v) dirties exactly one unit's cone.
	req := &serve.Request{
		Tenant:  "alpha",
		Sources: designs.Sources(),
		Units: []serve.UnitRequest{
			{Top: "leon3_pipeline", Accounting: true},
			{Top: "leon3_cache", Accounting: true},
			{Top: "rat_standard", Accounting: true},
			{Top: "rat_sliding", Accounting: true},
		},
	}

	first, err := cl.Remeasure(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Remeasure == nil {
		t.Fatal("remeasure response missing remeasure info")
	}
	if first.Remeasure.Baseline {
		t.Fatal("first remeasure claims a baseline existed")
	}
	if first.Remeasure.DirtyUnits != len(req.Units) {
		t.Fatalf("cold remeasure dirty units %d, want all %d", first.Remeasure.DirtyUnits, len(req.Units))
	}
	compareResults(t, "cold remeasure", first.Results, servetest.Reference(t, req, measure.Options{Concurrency: 2}))

	// Identical design again: everything clean, served from the
	// rolled baseline.
	second, err := cl.Remeasure(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Remeasure.Baseline || second.Remeasure.DirtyUnits != 0 ||
		second.Remeasure.CleanUnits != len(req.Units) {
		t.Fatalf("unchanged remeasure = %+v, want baseline hit with 0 dirty units", second.Remeasure)
	}
	compareResults(t, "clean remeasure", second.Results, first.Results)

	// Edit one module: only its cone re-measures, results match a
	// from-scratch direct measurement of the edited design.
	edited := &serve.Request{Tenant: req.Tenant, Units: req.Units, Sources: map[string]string{}}
	for name, src := range req.Sources {
		edited.Sources[name] = src
	}
	const anchor = "= table_mem[raddr[AW-1:0]];"
	src, ok := edited.Sources["RAT-Standard.v"]
	if !ok {
		t.Fatal("RAT-Standard.v missing from the paper corpus")
	}
	edited.Sources["RAT-Standard.v"] = replaceOnce(t, src, anchor, "= ~table_mem[raddr[AW-1:0]];")

	third, err := cl.Remeasure(context.Background(), edited)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Remeasure.Baseline {
		t.Fatal("edited remeasure lost the rolling baseline")
	}
	if third.Remeasure.DirtyUnits == 0 || third.Remeasure.DirtyUnits >= len(req.Units) {
		t.Fatalf("edited remeasure dirty units = %d, want partial redo (0 < dirty < %d)",
			third.Remeasure.DirtyUnits, len(req.Units))
	}
	compareResults(t, "edited remeasure", third.Results, servetest.Reference(t, edited, measure.Options{Concurrency: 2}))
	if third.Remeasure.CutoffUnits != 0 {
		t.Errorf("changing edit cut off %d units, want 0", third.Remeasure.CutoffUnits)
	}

	// A netlist-neutral edit (a fresh unused wire) dirties the same cone,
	// and the early cutoff answers every dirty unit of it.
	neutral := &serve.Request{Tenant: req.Tenant, Units: req.Units, Sources: map[string]string{}}
	for name, src := range edited.Sources {
		neutral.Sources[name] = src
	}
	neutral.Sources["RAT-Standard.v"] = replaceOnce(t, neutral.Sources["RAT-Standard.v"],
		"  localparam REGS = 1 << AW;", "  localparam REGS = 1 << AW;\n  wire cutoff_probe;")
	cut, err := cl.Remeasure(context.Background(), neutral)
	if err != nil {
		t.Fatal(err)
	}
	if r := cut.Remeasure; r.DirtyUnits == 0 || r.CutoffUnits != r.DirtyUnits {
		t.Errorf("neutral edit: %d dirty units, %d cut off; want all dirty units cut off", r.DirtyUnits, r.CutoffUnits)
	}
	compareResults(t, "neutral remeasure", cut.Results, servetest.Reference(t, neutral, measure.Options{Concurrency: 2}))

	// Tenant isolation: another tenant sees no baseline for the same
	// unit set.
	other := &serve.Request{Tenant: "beta", Sources: req.Sources, Units: req.Units}
	fourth, err := cl.Remeasure(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Remeasure.Baseline {
		t.Fatal("tenant beta inherited tenant alpha's baseline")
	}
}

// TestServedRemeasureRemovedModule: deleting the shared library file
// leaves components instantiating modules no file declares. /remeasure
// against the tenant's rolling baseline must then fail exactly as
// /measure of the same sources does, not serve the baseline's stale
// results, and the failure must leave the baseline in place.
func TestServedRemeasureRemovedModule(t *testing.T) {
	h := servetest.Start(t, serve.Config{Concurrency: 2})
	cl := h.Client()
	req := servetest.PaperRequest(t, "alpha", 0)
	if _, err := cl.Remeasure(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	noLib := &serve.Request{Tenant: req.Tenant, Units: req.Units, Sources: map[string]string{}}
	for name, src := range req.Sources {
		if name != "lib.v" {
			noLib.Sources[name] = src
		}
	}
	_, merr := cl.Measure(context.Background(), noLib)
	var mst *servetest.Status
	if !errors.As(merr, &mst) {
		t.Fatalf("/measure without lib.v: %v, want an HTTP error status", merr)
	}
	resp, rerr := cl.Remeasure(context.Background(), noLib)
	var rst *servetest.Status
	if !errors.As(rerr, &rst) {
		t.Fatalf("/remeasure without lib.v answered %v (%+v), want /measure's %d", rerr, resp, mst.Code)
	}
	if rst.Code != mst.Code || rst.Body != mst.Body {
		t.Errorf("/remeasure failed with %d %q, /measure with %d %q", rst.Code, rst.Body, mst.Code, mst.Body)
	}

	again, err := cl.Remeasure(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r := again.Remeasure; !r.Baseline || r.DirtyUnits != 0 {
		t.Errorf("restored sources after a failed remeasure = %+v, want the old baseline with 0 dirty units", r)
	}
}

func replaceOnce(t *testing.T, src, old, new string) string {
	t.Helper()
	i := strings.Index(src, old)
	if i < 0 {
		t.Fatalf("anchor %q not found", old)
	}
	return src[:i] + new + src[i+len(old):]
}

// paddedRequest is a generated request of n components plus, per
// component, a copy of its top module named <top>_pad that declares
// one more two-bit wire and never uses it, measured as one more unit:
// the copy's design-point key differs from the original's (a ranged
// declaration stays in the key), its optimized netlist does not.
func paddedRequest(t *testing.T, tenant string, n int) *serve.Request {
	t.Helper()
	req := servetest.GeneratedRequest(t, tenant, n, 1)
	var pad strings.Builder
	for _, u := range req.Units {
		for _, src := range req.Sources {
			from := strings.Index(src, "module "+u.Top+" ")
			if from < 0 {
				continue
			}
			to := from + strings.Index(src[from:], "endmodule")
			pad.WriteString("module " + u.Top + "_pad" + src[from+len("module "+u.Top):to] + "  wire [1:0] pad_unused;\nendmodule\n")
		}
		req.Units = append(req.Units, serve.UnitRequest{Top: u.Top + "_pad"})
	}
	req.Sources["pad.v"] = pad.String()
	return req
}

// TestMetricsSumsMetricsReused pins /metrics' session object: its
// MetricsReused is the sum over the live sessions of each session's
// netlist-memo hits. Two tenants measure one corpus at one worker, so
// each session reuses exactly what a direct session does. The corpus
// must repeat an optimized netlist across design points: its padded
// copies do.
func TestMetricsSumsMetricsReused(t *testing.T) {
	reqA := paddedRequest(t, "tenant-a", 20)
	reqB := paddedRequest(t, "tenant-b", 20)
	design, err := hdl.ParseDesign(reqA.Sources)
	if err != nil {
		t.Fatal(err)
	}
	units := make([]measure.Unit, len(reqA.Units))
	for i, u := range reqA.Units {
		units[i] = measure.Unit{Top: u.Top, UseAccounting: u.Accounting}
	}
	sess := measure.NewSession(design)
	if _, err := sess.MeasureAll(units, measure.Options{Concurrency: 1}); err != nil {
		t.Fatal(err)
	}
	want := sess.Stats().MetricsReused
	if want == 0 {
		t.Fatal("reference corpus reuses no metrics; pick one that repeats a netlist")
	}

	h := servetest.Start(t, serve.Config{Concurrency: 1, MaxConcurrent: 4})
	for i, req := range []*serve.Request{reqA, reqB} {
		if _, err := h.Client().Measure(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if got := h.Server.Metrics().Session.MetricsReused; got != (i+1)*want {
			t.Errorf("after %d tenants: /metrics reports %d metrics reused, want %d", i+1, got, (i+1)*want)
		}
	}
}
