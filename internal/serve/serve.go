package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/parallel"
)

// Config configures a Server. The zero value is serviceable: no disk
// cache, GOMAXPROCS measurement workers, two admission slots with a
// short queue, and no request timeout.
type Config struct {
	// Concurrency is the per-request measurement worker count
	// (measure.Options.Concurrency): 0 means GOMAXPROCS, 1 the exact
	// sequential path.
	Concurrency int
	// MaxConcurrent bounds how many measurement requests run at once
	// (admission slots). 0 means 2.
	MaxConcurrent int
	// QueueDepth bounds how many admitted-but-waiting requests may
	// queue behind the slots; beyond it requests are shed with 429.
	// 0 means 8; use -1 for no queue at all.
	QueueDepth int
	// RequestTimeout, when positive, bounds each measurement request's
	// wall time; on expiry in-flight synthesis is canceled (abandoned
	// flights are evicted, so the table stays clean) and the client
	// gets 504. A request's timeout_ms can only tighten this.
	RequestTimeout time.Duration
	// Cache, when non-nil, is the shared on-disk measurement cache.
	// Tenant namespaces partition its key space, so one directory
	// serves every tenant without cross-contamination.
	Cache *cache.Cache
	// MaxSessions bounds the parsed-design session table (LRU beyond
	// it). 0 means 16.
	MaxSessions int
	// Limits bounds request size and shape; zero fields take the
	// package defaults.
	Limits Limits
	// OnAdmitted, when set, runs after a request passes admission
	// control and before it starts measuring, with the endpoint path.
	// It is an observability/test seam: the lifecycle tests park
	// requests here to make drain and queue-full deterministic.
	OnAdmitted func(endpoint string)
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 8
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// sessionEntry is one parsed design's long-lived measurement session.
// Parsing is single-flight: the creator closes done, concurrent
// requests for the same (tenant, sources) wait on it and then share
// the one Session — which is what makes the session's single-flight
// synthesis table coalesce across clients.
type sessionEntry struct {
	done    chan struct{}
	sess    *measure.Session
	err     error
	lastUse uint64 // server.seq tick, under server.smu
}

// tenantState is the per-tenant mutable state: the rolling remeasure
// baselines, keyed by unit set.
type tenantState struct {
	mu        sync.Mutex
	baselines map[string]*measure.Baseline
}

// counters is the daemon's atomic activity record, served by /metrics.
type counters struct {
	requests      atomic.Int64 // bodies accepted for admission
	measures      atomic.Int64 // /measure requests served 200
	remeasures    atomic.Int64 // /remeasure requests served 200
	unitsMeasured atomic.Int64 // units answered across 200s
	badRequests   atomic.Int64 // 400s
	rejected      atomic.Int64 // 429s (queue full)
	drained       atomic.Int64 // 503s while draining
	timeouts      atomic.Int64 // 504s
	failures      atomic.Int64 // 422s (measurement errors)
}

// Server is the ucserved daemon: http.Handler plus the shared state
// every request coalesces through.
type Server struct {
	cfg   Config
	gate  *parallel.Gate
	mux   *http.ServeMux
	start time.Time

	draining atomic.Bool

	smu      sync.Mutex
	sessions map[string]*sessionEntry
	seq      uint64

	tmu     sync.Mutex
	tenants map[string]*tenantState

	ctr counters
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		gate:     parallel.NewGate(cfg.MaxConcurrent, cfg.QueueDepth),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		sessions: make(map[string]*sessionEntry),
		tenants:  make(map[string]*tenantState),
	}
	s.mux.HandleFunc("/measure", func(w http.ResponseWriter, r *http.Request) {
		s.handleMeasure(w, r, false)
	})
	s.mux.HandleFunc("/remeasure", func(w http.ResponseWriter, r *http.Request) {
		s.handleMeasure(w, r, true)
	})
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain flips the server into draining: /healthz turns 503,
// every new measurement request is refused with 503, and in-flight
// requests run to completion. The HTTP layer's Shutdown should follow
// to close the listener once handlers return.
func (s *Server) StartDrain() { s.draining.Store(true) }

// srcKey is the session-table key: tenant plus the content hash of the
// source set (order-independent, length-prefixed, so no concatenation
// ambiguity between names and contents).
func srcKey(tenant string, sources map[string]string) string {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, 1+2*len(names))
	parts = append(parts, tenant)
	for _, n := range names {
		parts = append(parts, n, sources[n])
	}
	return cache.Key(parts...)
}

// session returns the measurement session for (tenant, sources),
// parsing the design at most once per key no matter how many clients
// ask concurrently, and evicting the least-recently-used entry when
// the table outgrows MaxSessions.
func (s *Server) session(tenant string, sources map[string]string) (*measure.Session, error) {
	key := srcKey(tenant, sources)
	s.smu.Lock()
	s.seq++
	if e, ok := s.sessions[key]; ok {
		e.lastUse = s.seq
		s.smu.Unlock()
		<-e.done
		return e.sess, e.err
	}
	e := &sessionEntry{done: make(chan struct{}), lastUse: s.seq}
	s.sessions[key] = e
	if len(s.sessions) > s.cfg.MaxSessions {
		s.evictLRULocked(key)
	}
	s.smu.Unlock()

	design, err := hdl.ParseDesignParallel(sources, s.cfg.Concurrency)
	if err != nil {
		e.err = fmt.Errorf("serve: parse design: %w", err)
	} else {
		e.sess = measure.NewSession(design)
	}
	close(e.done)
	// A failed parse must not be served to later requests from the
	// table (the sources that hash to this key will always fail, but
	// keeping the entry would pin a dead table slot).
	if e.err != nil {
		s.smu.Lock()
		if s.sessions[key] == e {
			delete(s.sessions, key)
		}
		s.smu.Unlock()
	}
	return e.sess, e.err
}

// evictLRULocked drops the least-recently-used entry other than keep.
// Requests already holding the evicted session keep using it; it just
// stops being findable, and its memory goes when they finish.
func (s *Server) evictLRULocked(keep string) {
	var victim string
	var oldest uint64
	for k, e := range s.sessions {
		if k == keep {
			continue
		}
		if victim == "" || e.lastUse < oldest {
			victim, oldest = k, e.lastUse
		}
	}
	if victim != "" {
		delete(s.sessions, victim)
	}
}

// tenant returns (creating if needed) the tenant's state.
func (s *Server) tenant(name string) *tenantState {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{baselines: make(map[string]*measure.Baseline)}
		s.tenants[name] = ts
	}
	return ts
}

// options builds the per-tenant measurement options: the tenant name
// becomes the cache namespace, so tenants sharing one cache directory
// can never read each other's entries.
func (s *Server) options(tenant string) measure.Options {
	return measure.Options{
		Concurrency: s.cfg.Concurrency,
		Cache:       s.cfg.Cache,
		Namespace:   "tenant/" + tenant,
	}
}

// baselineKey identifies a rolling baseline within a tenant: the unit
// set, order-sensitive (a reordered unit list is a different request
// shape and gets its own baseline).
func baselineKey(units []UnitRequest) string {
	var b strings.Builder
	for _, u := range units {
		b.WriteString(u.Top)
		if u.Accounting {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
		b.WriteByte(0xff)
	}
	return b.String()
}

// maxBodyPresize caps the buffer readBody sizes from Content-Length,
// well above the 57 KB paper-corpus request. The header is a claim,
// not bytes: sized in full, it would let a client reserve MaxBodyBytes
// per connection without sending any.
const maxBodyPresize = 1 << 20

// readBody reads r to EOF into one buffer presized from the request's
// declared length n (-1 when unknown), so a body that arrives as
// declared is read without regrowing (io.ReadAll starts at 512 bytes
// and doubles).
func readBody(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	// ReadFrom grows the buffer whenever less than MinRead is free, so
	// the presize leaves that much room after the declared length.
	buf.Grow(int(min(max(n, 0), maxBodyPresize)) + bytes.MinRead)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

// handleMeasure serves POST /measure and (remeasure=true) POST
// /remeasure. The two share everything but the middle: /remeasure
// consults and rolls the tenant's baseline, /measure always measures
// through the session (which still coalesces via the single-flight
// table and disk cache).
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request, remeasure bool) {
	endpoint := "/measure"
	if remeasure {
		endpoint = "/remeasure"
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "serve: %s wants POST", endpoint)
		return
	}
	if s.draining.Load() {
		s.ctr.drained.Add(1)
		httpError(w, http.StatusServiceUnavailable, "serve: draining")
		return
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes), r.ContentLength)
	if err != nil {
		s.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "serve: read body: %v", err)
		return
	}
	req, err := ParseRequest(body, s.cfg.Limits)
	if err != nil {
		s.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.ctr.requests.Add(1)

	// The effective deadline: the server ceiling tightened by the
	// client's timeout_ms, whichever is smaller.
	ctx := r.Context()
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; timeout <= 0 || t < timeout {
			timeout = t
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	if err := s.gate.Acquire(ctx); err != nil {
		if errors.Is(err, parallel.ErrQueueFull) {
			s.ctr.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "serve: admission queue full")
			return
		}
		s.ctr.timeouts.Add(1)
		httpError(w, http.StatusGatewayTimeout, "serve: timed out in admission queue: %v", err)
		return
	}
	defer s.gate.Release()
	// Draining may have started while this request sat in the queue:
	// work not yet admitted when the drain began is refused, while
	// anything past this line is in-flight and runs to completion.
	if s.draining.Load() {
		s.ctr.drained.Add(1)
		httpError(w, http.StatusServiceUnavailable, "serve: draining")
		return
	}
	if s.cfg.OnAdmitted != nil {
		s.cfg.OnAdmitted(endpoint)
	}

	sess, err := s.session(req.Tenant, req.Sources)
	if err != nil {
		s.ctr.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	units := make([]measure.Unit, len(req.Units))
	for i, u := range req.Units {
		units[i] = measure.Unit{Top: u.Top, UseAccounting: u.Accounting}
	}
	opts := s.options(req.Tenant)

	resp := &Response{Tenant: req.Tenant}
	ts := s.tenant(req.Tenant)
	var results []*measure.ComponentResult
	if remeasure {
		bkey := baselineKey(req.Units)
		ts.mu.Lock()
		prev := ts.baselines[bkey]
		ts.mu.Unlock()
		var next *measure.Baseline
		var rstats measure.RemeasureStats
		results, next, rstats, err = sess.RemeasureCtx(ctx, prev, units, opts)
		if err == nil {
			ts.mu.Lock()
			ts.baselines[bkey] = next
			ts.mu.Unlock()
			resp.Remeasure = &RemeasureInfo{
				Baseline:       prev != nil,
				ChangedModules: rstats.ChangedModules,
				AddedModules:   rstats.AddedModules,
				RemovedModules: rstats.RemovedModules,
				DirtyModules:   rstats.DirtyModules,
				CleanModules:   rstats.CleanModules,
				DirtyUnits:     rstats.DirtyUnits,
				CleanUnits:     rstats.CleanUnits,
				CutoffUnits:    rstats.CutoffUnits,
			}
		}
	} else {
		results, err = sess.MeasureAllCtx(ctx, units, opts)
	}
	if err != nil {
		if ctx.Err() != nil {
			s.ctr.timeouts.Add(1)
			httpError(w, http.StatusGatewayTimeout, "serve: request timed out: %v", err)
			return
		}
		s.ctr.failures.Add(1)
		httpError(w, http.StatusUnprocessableEntity, "serve: measurement failed: %v", err)
		return
	}

	resp.Results = ResultsOf(req.Units, results)
	st := sess.Stats()
	resp.Session = SessionInfo{
		Components:  st.Components,
		Planned:     st.Planned,
		Synthesized: st.Synthesized,
		Shared:      st.Shared,
	}
	if remeasure {
		s.ctr.remeasures.Add(1)
	} else {
		s.ctr.measures.Add(1)
	}
	s.ctr.unitsMeasured.Add(int64(len(results)))
	writeJSON(w, resp)
}
