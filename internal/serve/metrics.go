package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/elab"
	"repro/internal/measure"
)

// CacheMetrics is the shared disk cache's share of /metrics: runtime
// counters plus the memoized on-disk footprint.
type CacheMetrics struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Puts         int64 `json:"puts"`
	DecodeErrors int64 `json:"decode_errors"`
	Entries      int   `json:"entries"`
	Bytes        int64 `json:"bytes"`
}

// MetricsSnapshot is the GET /metrics response: admission state,
// request counters, and the aggregated measurement-pipeline statistics
// of every live session.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`

	Requests      int64 `json:"requests"`
	Measures      int64 `json:"measures"`
	Remeasures    int64 `json:"remeasures"`
	UnitsMeasured int64 `json:"units_measured"`
	BadRequests   int64 `json:"bad_requests"`
	Rejected      int64 `json:"rejected_queue_full"`
	Drained       int64 `json:"rejected_draining"`
	Timeouts      int64 `json:"timeouts"`
	Failures      int64 `json:"measurement_failures"`

	Sessions int `json:"sessions"`
	Tenants  int `json:"tenants"`

	// Session aggregates measure.SessionStats over every live session;
	// Elab likewise for the per-session elaboration caches.
	Session measure.SessionStats `json:"session"`
	Elab    elab.CacheStats      `json:"elab"`

	// Cache is nil when the daemon runs without a disk cache.
	Cache *CacheMetrics `json:"cache,omitempty"`
}

// Metrics assembles the current snapshot. Exported (not just an HTTP
// handler) so the daemon smoke test and servetest assertions can read
// it typed.
func (s *Server) Metrics() MetricsSnapshot {
	m := MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.draining.Load(),
		InFlight:      s.gate.Running(),
		Queued:        s.gate.Queued(),
		Requests:      s.ctr.requests.Load(),
		Measures:      s.ctr.measures.Load(),
		Remeasures:    s.ctr.remeasures.Load(),
		UnitsMeasured: s.ctr.unitsMeasured.Load(),
		BadRequests:   s.ctr.badRequests.Load(),
		Rejected:      s.ctr.rejected.Load(),
		Drained:       s.ctr.drained.Load(),
		Timeouts:      s.ctr.timeouts.Load(),
		Failures:      s.ctr.failures.Load(),
	}

	s.smu.Lock()
	m.Sessions = len(s.sessions)
	live := make([]*sessionEntry, 0, len(s.sessions))
	for _, e := range s.sessions {
		live = append(live, e)
	}
	s.smu.Unlock()
	for _, e := range live {
		select {
		case <-e.done:
		default:
			continue // still parsing; nothing to aggregate yet
		}
		if e.sess == nil {
			continue
		}
		st := e.sess.Stats()
		m.Session.Components += st.Components
		m.Session.Planned += st.Planned
		m.Session.Synthesized += st.Synthesized
		m.Session.Shared += st.Shared
		es := e.sess.ElabStats()
		m.Elab.Hits += es.Hits
		m.Elab.Misses += es.Misses
		m.Elab.InstancesReused += es.InstancesReused
	}

	s.tmu.Lock()
	m.Tenants = len(s.tenants)
	s.tmu.Unlock()

	if s.cfg.Cache != nil {
		m.Cache = cacheMetrics(s.cfg.Cache)
	}
	return m
}

func cacheMetrics(c *cache.Cache) *CacheMetrics {
	st := c.Stats()
	cm := &CacheMetrics{
		Hits:         st.Hits,
		Misses:       st.Misses,
		Puts:         st.Puts,
		DecodeErrors: st.DecodeErrors,
	}
	if ds, err := c.DiskStats(); err == nil {
		cm.Entries = ds.Entries
		cm.Bytes = ds.Bytes
	}
	return cm
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "serve: /metrics wants GET")
		return
	}
	writeJSON(w, s.Metrics())
}

// handleHealthz answers 200 "ok" while serving and 503 "draining"
// once StartDrain has been called, so a supervisor can pull the
// instance out of rotation before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// writeJSON writes v as the JSON response body. JSON is lossless for
// every response field: Go emits shortest round-trippable float64
// literals, so a decoded response is bit-identical to the sent one.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
