// Package serve is the ucserved measurement daemon: a long-running
// HTTP server that accepts µHDL design sources plus measurement units,
// plans and coalesces work from concurrent clients through one
// server-global measure.Session-backed single-flight table per parsed
// design, keeps a rolling per-tenant measure.Baseline so /remeasure
// answers one-module-edit deltas incrementally, and exposes /metrics
// and /healthz built from the existing session, elaboration, and cache
// statistics.
//
// The protocol boundary keeps the repository's golden-equivalence
// discipline: every response is bit-identical to converting the
// results of a direct measure.Session call on the same sources (the
// servetest harness pins this for concurrent multi-tenant clients).
package serve

import (
	"fmt"
	"math"
	"time"

	"repro/internal/measure"
)

// ContentTypeJSON is the response encoding. Requests are JSON too.
const ContentTypeJSON = "application/json"

// maxTimeoutMS is the largest timeout_ms whose time.Duration does not
// overflow; a larger value would wrap negative and disable the
// server's RequestTimeout ceiling.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// UnitRequest names one measurement unit of a request's design.
type UnitRequest struct {
	Top string `json:"top"`
	// Accounting applies the paper's Section 2.2 accounting procedure
	// (parameter minimization + instance deduplication).
	Accounting bool `json:"accounting,omitempty"`
}

// Request is the body of POST /measure and POST /remeasure.
type Request struct {
	// Tenant namespaces everything the request touches: its cache
	// entries, its parsed-design sessions, and its rolling remeasure
	// baseline. Empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Sources is the design, file name → µHDL source text.
	Sources map[string]string `json:"sources"`
	// Units are the measurement units, answered in order.
	Units []UnitRequest `json:"units"`
	// TimeoutMS, when positive, bounds this request's measurement
	// time; the server's configured RequestTimeout still applies as a
	// ceiling (the effective timeout is the smaller of the two).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// UnitResult is one unit's measurement on the wire: the full Table 3
// metric vector plus the accounting by-products. It is the exact
// projection servetest's reference path applies to a direct
// measure.Session result, so wire responses can be compared for
// bit-identity.
type UnitResult struct {
	Top              string           `json:"top"`
	Accounting       bool             `json:"accounting"`
	Metrics          measure.Metrics  `json:"metrics"`
	InstanceCount    int              `json:"instance_count"`
	DedupedInstances int              `json:"deduped_instances"`
	UniqueModules    []string         `json:"unique_modules"`
	MinimizedParams  map[string]int64 `json:"minimized_params,omitempty"`
}

// SessionInfo snapshots the serving session's cumulative sharing
// counters (cumulative across every request that hit the session, not
// per-request — the coalescing across clients is the point).
type SessionInfo struct {
	Components  int `json:"components"`
	Planned     int `json:"planned"`
	Synthesized int `json:"synthesized"`
	Shared      int `json:"shared"`
}

// RemeasureInfo reports what an incremental /remeasure had to redo.
type RemeasureInfo struct {
	// Baseline reports whether a rolling baseline existed for this
	// (tenant, unit set): false means the request measured cold.
	Baseline       bool     `json:"baseline"`
	ChangedModules []string `json:"changed_modules,omitempty"`
	AddedModules   []string `json:"added_modules,omitempty"`
	RemovedModules []string `json:"removed_modules,omitempty"`
	DirtyModules   int      `json:"dirty_modules"`
	CleanModules   int      `json:"clean_modules"`
	DirtyUnits     int      `json:"dirty_units"`
	CleanUnits     int      `json:"clean_units"`
	// CutoffUnits counts the dirty units whose optimized netlist hashed
	// as the baseline's, so their synthesis metrics were reused.
	CutoffUnits int `json:"cutoff_units"`
}

// Response is the body of a successful /measure or /remeasure.
type Response struct {
	Tenant  string       `json:"tenant"`
	Results []UnitResult `json:"results"`
	Session SessionInfo  `json:"session"`
	// Remeasure is set only by /remeasure.
	Remeasure *RemeasureInfo `json:"remeasure,omitempty"`
}

// Limits bounds what a request may ask for; requests beyond any bound
// are rejected with 400 before any work is admitted.
type Limits struct {
	// MaxBodyBytes bounds the request body (enforced by the HTTP
	// layer before JSON decoding).
	MaxBodyBytes int64
	// MaxSourceBytes bounds the sum of source text sizes.
	MaxSourceBytes int
	// MaxSourceFiles bounds the file count.
	MaxSourceFiles int
	// MaxUnits bounds the unit count.
	MaxUnits int
	// MaxTenantLen bounds the tenant name length.
	MaxTenantLen int
}

// withDefaults fills zero limits with the daemon defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 16 << 20
	}
	if l.MaxSourceBytes <= 0 {
		l.MaxSourceBytes = 8 << 20
	}
	if l.MaxSourceFiles <= 0 {
		l.MaxSourceFiles = 4096
	}
	if l.MaxUnits <= 0 {
		l.MaxUnits = 4096
	}
	if l.MaxTenantLen <= 0 {
		l.MaxTenantLen = 128
	}
	return l
}

// ParseRequest decodes and validates one JSON request body against the
// limits. Unknown fields are rejected — a typo'd option silently
// ignored would be a wrong answer served with a 200 — and so is
// anything but whitespace after the request value. The decode is
// decodeRequest's single pass, which FuzzParseRequest holds to
// encoding/json's results. It never panics on hostile input
// (FuzzServeRequest pins this).
func ParseRequest(body []byte, limits Limits) (*Request, error) {
	limits = limits.withDefaults()
	req, err := decodeRequest(body)
	if err != nil {
		return nil, err
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if len(req.Tenant) > limits.MaxTenantLen {
		return nil, fmt.Errorf("serve: tenant name exceeds %d bytes", limits.MaxTenantLen)
	}
	if len(req.Sources) == 0 {
		return nil, fmt.Errorf("serve: request has no sources")
	}
	if len(req.Sources) > limits.MaxSourceFiles {
		return nil, fmt.Errorf("serve: %d source files exceed the %d-file limit", len(req.Sources), limits.MaxSourceFiles)
	}
	total := 0
	for name, src := range req.Sources {
		if name == "" {
			return nil, fmt.Errorf("serve: empty source file name")
		}
		total += len(src)
	}
	if total > limits.MaxSourceBytes {
		return nil, fmt.Errorf("serve: %d source bytes exceed the %d-byte limit", total, limits.MaxSourceBytes)
	}
	if len(req.Units) == 0 {
		return nil, fmt.Errorf("serve: request has no units")
	}
	if len(req.Units) > limits.MaxUnits {
		return nil, fmt.Errorf("serve: %d units exceed the %d-unit limit", len(req.Units), limits.MaxUnits)
	}
	for i, u := range req.Units {
		if u.Top == "" {
			return nil, fmt.Errorf("serve: unit %d has no top module", i)
		}
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("serve: negative timeout_ms")
	}
	if req.TimeoutMS > maxTimeoutMS {
		return nil, fmt.Errorf("serve: timeout_ms %d exceeds %d", req.TimeoutMS, maxTimeoutMS)
	}
	return req, nil
}

// ResultsOf converts direct measure.Session results into their wire
// form, in unit order. It is exported so the servetest reference path
// applies the exact projection the server does: wire bit-identity then
// proves daemon measurement == direct measurement.
func ResultsOf(units []UnitRequest, results []*measure.ComponentResult) []UnitResult {
	out := make([]UnitResult, len(units))
	for i, u := range units {
		res := results[i]
		ur := UnitResult{
			Top:              u.Top,
			Accounting:       u.Accounting,
			Metrics:          *res.Metrics,
			InstanceCount:    res.InstanceCount,
			DedupedInstances: res.DedupedInstances,
			UniqueModules:    append([]string(nil), res.UniqueModules...),
		}
		if len(res.MinimizedParams) > 0 {
			ur.MinimizedParams = make(map[string]int64, len(res.MinimizedParams))
			for k, v := range res.MinimizedParams {
				ur.MinimizedParams[k] = v
			}
		}
		out[i] = ur
	}
	return out
}
