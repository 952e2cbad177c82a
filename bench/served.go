package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/depgraph"
	"repro/internal/designs"
	"repro/internal/hdl"
	"repro/internal/serve"
)

// The served workload's traffic, over at most two HTTP connections:
// half warm /measure requests from tenant A over the unmodified paper
// corpus, half /remeasure requests from tenant B carrying the edit
// loop's mix of saves, in seeded order. The timed phase sends them
// from one caller, back to back; the traced run adds seeded open-loop
// arrivals at two rates. The split and the rates are assumed, not
// measured (no recorded traffic exists): the equal split weighs the
// warm read path and the re-measure path alike, and the two rates sit
// near a fifth and near three fifths of the rate at which two callers
// saturate the daemon on a 2-core host (about 250 req/s), so one step
// sees little queueing and the other a lot.
const (
	tenantA, tenantB = "a", "b"
	lightRate        = 50.0  // req/s, the serve.lo_* step
	heavyRate        = 150.0 // req/s, the serve.hi_* step
	maxConns         = 2
	// max_rps is the highest offered rate whose step meets the latency
	// limit with no failures while the generator itself kept up.
	limitP95Ms   = 50.0
	lateLimitMs  = 5.0
	searchMinReq = 200  // fewest requests a p95 needs under the tail rule
	searchRes    = 0.05 // bisect max_rps to 5%
)

// Request headers carrying the benchmark's request id and the client
// span the handler's span nests under.
const (
	hdrRequest = "X-Bench-Request"
	hdrSpan    = "X-Bench-Span"
)

// slot is one scheduled request.
type slot struct {
	at        time.Duration // due time from the step's start
	remeasure bool          // tenant B /remeasure, else tenant A /measure
}

// schedule draws step's n Poisson arrivals at rate req/s from a stream
// seeded by seed. Exactly half the requests (rounded down) are tenant
// B's, in seeded order, so every seed offers the same mix.
func schedule(seed uint64, step int, rate float64, n int) []slot {
	rng := rand.New(rand.NewPCG(seed, 0x73657276^uint64(step)<<32))
	out := make([]slot, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = slot{at: time.Duration(t * float64(time.Second)), remeasure: i < n/2}
	}
	rng.Shuffle(n, func(i, j int) { out[i].remeasure, out[j].remeasure = out[j].remeasure, out[i].remeasure })
	return out
}

// handlerTimer wraps the daemon's handler to time every request on the
// server side and record a span under the client's span when the
// request carries one.
type handlerTimer struct {
	next http.Handler
	tr   *tracer

	mu             sync.Mutex
	ms             map[int]float64 // request id → handler ms
	inflight, peak int
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id, err := strconv.Atoi(req.Header.Get(hdrRequest))
	if err != nil {
		id = -1
	}
	sid := -1
	if p, err := strconv.Atoi(req.Header.Get(hdrSpan)); err == nil && p >= 0 {
		sid = h.tr.begin("serve"+strings.ReplaceAll(req.URL.Path, "/", "."), p, id)
	}
	h.mu.Lock()
	h.inflight++
	h.peak = max(h.peak, h.inflight)
	h.mu.Unlock()
	t0 := time.Now()
	h.next.ServeHTTP(w, req)
	ms := msSince(t0)
	h.tr.end(sid)
	h.mu.Lock()
	h.inflight--
	if id >= 0 {
		h.ms[id] = ms
	}
	h.mu.Unlock()
}

// daemon is one in-process ucserved on a loopback listener.
type daemon struct {
	srv    *serve.Server
	timer  *handlerTimer
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	url    string
	cache  *cache.Cache
	client *http.Client
}

// startDaemon starts a server with the ucserved defaults (two
// admission slots, a queue of eight) over cache c.
func startDaemon(c *cache.Cache, tr *tracer) (*daemon, error) {
	srv := serve.New(serve.Config{MaxConcurrent: 2, QueueDepth: 8, Cache: c})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		timer:  &handlerTimer{next: srv.Handler(), tr: tr, ms: map[int]float64{}},
		served: make(chan struct{}),
		url:    "http://" + lis.Addr().String(),
		cache:  c,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}},
	}
	d.hs = &http.Server{Handler: d.timer}
	go func() {
		defer close(d.served)
		d.hs.Serve(lis)
	}()
	return d, nil
}

// close stops the server and waits for it to exit.
func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	d.client.CloseIdleConnections()
}

// kindMeasure is the kind of tenant A's requests; tenant B's take the
// edit kind of the save they carry.
const kindMeasure = numEditKinds

// kindName names a request kind.
func kindName(k editKind) string {
	if k == kindMeasure {
		return "measure"
	}
	return editKindNames[k]
}

// request is one prepared request.
type request struct {
	id        int
	remeasure bool     // tenant B /remeasure, else tenant A /measure
	kind      editKind // kindMeasure for tenant A
	body      []byte
	keep      bool // keep the response's results, for a check
}

// call is one request's outcome.
type call struct {
	id        int
	remeasure bool
	kind      editKind
	latMs     float64 // from due to response
	waitMs    float64 // from send until a connection was free
	clientMs  float64 // from send to response
	err       error
	results   []serve.UnitResult   // kept only for a checked request
	ri        *serve.RemeasureInfo // tenant B's dirty and clean counts
}

// post sends one request and decodes the response. Its latency counts
// from due, the time the schedule wanted it sent.
func (d *daemon) post(tr *tracer, q request, due time.Time) call {
	id, body := q.id, q.body
	c := call{id: id, remeasure: q.remeasure, kind: q.kind}
	path := "/measure"
	if q.remeasure {
		path = "/remeasure"
	}
	// The request span covers send to decoded response; the connection
	// wait and the handler nest under it, so its self time is the wire.
	root := tr.begin(opSpan, -1, id)
	reqSpan := tr.begin("loadgen.request", root, id)
	sent := time.Now()
	var gotConn time.Time
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
	})
	c.err = func() error {
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hr.Header.Set("Content-Type", serve.ContentTypeJSON)
		hr.Header.Set(hdrRequest, strconv.Itoa(id))
		if reqSpan >= 0 {
			hr.Header.Set(hdrSpan, strconv.Itoa(reqSpan))
		}
		res, err := d.client.Do(hr)
		if err != nil {
			return err
		}
		defer res.Body.Close()
		data, err := io.ReadAll(res.Body)
		if err != nil {
			return err
		}
		if res.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d: %s", path, res.StatusCode, bytes.TrimSpace(data))
		}
		var resp serve.Response
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if q.keep {
			c.results = resp.Results
		}
		if ri := resp.Remeasure; ri != nil {
			c.ri = &serve.RemeasureInfo{DirtyUnits: ri.DirtyUnits, CleanUnits: ri.CleanUnits, DirtyModules: ri.DirtyModules}
		}
		return nil
	}()
	done := time.Now()
	if gotConn.IsZero() {
		gotConn = sent
	}
	tr.add("loadgen.conn_wait", reqSpan, id, sent, gotConn)
	tr.end(reqSpan)
	tr.end(root)
	c.latMs = float64(done.Sub(due).Nanoseconds()) / 1e6
	c.waitMs = float64(gotConn.Sub(sent).Nanoseconds()) / 1e6
	c.clientMs = float64(done.Sub(sent).Nanoseconds()) / 1e6
	return c
}

// traffic builds request bodies: tenant A's never changes, tenant B's
// carries the next save of its own seeded edit stream, dealt like the
// edit loop's. The k-th tenant-B request carries sourcesAt's k-th
// sources for that stream, which is how checks and the replay rebuild
// them after the timed phase.
type traffic struct {
	units []serve.UnitRequest
	bodyA []byte
	ed    *editor
	edits *editStream
	sentB int // tenant-B requests built so far
}

func newTraffic(seed uint64) (*traffic, error) {
	t := &traffic{
		units: unitRequests(paperUnits()),
		ed:    newEditor(),
		edits: newEditStream(seed, tenantBStream),
	}
	var err error
	t.bodyA, err = json.Marshal(serve.Request{Tenant: tenantA, Sources: t.ed.snapshot(), Units: t.units})
	return t, err
}

// next fills in the body and kind of the next request to tenant A or B
// and returns, for tenant B, the request's place in tenant B's stream
// (-1 for tenant A).
func (t *traffic) next(q *request) (int, error) {
	if !q.remeasure {
		q.body, q.kind = t.bodyA, kindMeasure
		return -1, nil
	}
	ed := t.edits.next()
	if _, err := t.ed.apply(ed); err != nil {
		return 0, err
	}
	var err error
	q.body, err = json.Marshal(serve.Request{Tenant: tenantB, Sources: t.ed.sources, Units: t.units})
	q.kind = ed.kind
	t.sentB++
	return t.sentB - 1, err
}

// stepStats summarizes one step.
type stepStats struct {
	name     string
	offered  float64 // req/s; 0 for the closed-loop step
	failures int
	lat      []float64
	p50, p95 float64
	hasP95   bool
	late     []float64 // ms the dispatcher woke after each due time
	lateP95  float64
	achieved float64
	calls    []call
	checked  map[int]int // checked request id → tenant-B stream place (-1: tenant A)
}

// pass reports whether the step meets the max_rps criteria.
func (s *stepStats) pass() bool {
	return s.failures == 0 && s.hasP95 && s.p95 <= limitP95Ms && s.lateP95 <= lateLimitMs
}

// loadgen drives the daemon.
type loadgen struct {
	r       *run
	d       *daemon
	t       *traffic
	steps   int
	nextID  int
	results []*stepStats
}

// newStep allocates a step of n requests.
func (g *loadgen) newStep(name string, rate float64, n int) *stepStats {
	g.steps++
	return &stepStats{name: name, offered: rate, calls: make([]call, n), checked: map[int]int{}}
}

// prepare assigns the next request id and builds a request to tenant A
// or B, noting what verify will need when the request is checked. Not
// safe for concurrent use.
func (g *loadgen) prepare(s *stepStats, remeasure bool) (request, error) {
	q := request{id: g.nextID, remeasure: remeasure}
	g.nextID++
	place, err := g.t.next(&q)
	if err != nil {
		return q, err
	}
	if q.keep = q.id%g.r.size.checkEvery == 0; q.keep {
		s.checked[q.id] = place
	}
	return q, nil
}

// step offers n requests at rate req/s and waits for every response.
// The dispatcher builds each body before its due time, sleeps until
// then, records how late it woke, and hands the request to its own
// goroutine; the transport's two connections bound what is in flight.
func (g *loadgen) step(name string, rate float64, n int) (*stepStats, error) {
	slots := schedule(g.r.seed, g.steps, rate, n)
	s := g.newStep(name, rate, n)
	s.late = make([]float64, n)
	var wg sync.WaitGroup
	defer wg.Wait()
	start := time.Now()
	for i, sl := range slots {
		q, err := g.prepare(s, sl.remeasure)
		if err != nil {
			return nil, err
		}
		due := start.Add(sl.at)
		time.Sleep(time.Until(due))
		s.late[i] = msSince(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.calls[i] = g.d.post(g.r.opTracer(q.id), q, due)
		}()
	}
	wg.Wait()
	var lastDone time.Duration
	for i, c := range s.calls {
		lastDone = max(lastDone, slots[i].at+time.Duration(c.latMs*float64(time.Millisecond)))
	}
	s.achieved = ratio(float64(n), lastDone.Seconds())
	g.finish(s)
	return s, nil
}

// closed runs a closed loop: each of callers callers sends its next
// request as soon as the previous one answers, n requests in all, half
// of them tenant B's in seeded order. A request's latency counts from
// its send; its body is built before. With one caller it measures the
// daemon's latency with no queueing; with maxConns callers, its
// throughput at its connection limit.
func (g *loadgen) closed(name string, callers, n int) (*stepStats, error) {
	slots := schedule(g.r.seed, g.steps, 1, n)
	s := g.newStep(name, 0, n)
	var mu sync.Mutex // guards next, prepare, and firstErr
	next := 0
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i == n || firstErr != nil {
					mu.Unlock()
					return
				}
				next++
				q, err := g.prepare(s, slots[i].remeasure)
				if err != nil {
					firstErr = err
					mu.Unlock()
					return
				}
				mu.Unlock()
				s.calls[i] = g.d.post(g.r.opTracer(q.id), q, time.Now())
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	s.achieved = float64(n) / time.Since(start).Seconds()
	g.finish(s)
	return s, nil
}

// finish tallies a step's outcomes and latencies.
func (g *loadgen) finish(s *stepStats) {
	for _, c := range s.calls {
		s.lat = append(s.lat, c.latMs)
		if c.err != nil {
			s.failures++
			g.r.fail("%s step request %d: %v", s.name, c.id, c.err)
		} else if _, ok := s.checked[c.id]; !ok {
			g.r.record() // checked requests are recorded by verify
		}
	}
	s.summarize()
	g.results = append(g.results, s)
}

// summarize computes the step's latency and lateness statistics. A
// step too short for a p95 of its lateness reports the worst.
func (s *stepStats) summarize() {
	s.p50 = median(s.lat)
	var err error
	s.p95, err = percentile(s.lat, 95)
	s.hasP95 = err == nil
	if len(s.late) > 0 {
		if s.lateP95, err = percentile(s.late, 95); err != nil {
			s.lateP95 = sortedCopy(s.late)[len(s.late)-1]
		}
	}
}

// log reports one step, and each request kind's median latency and
// median handler time in it.
func (g *loadgen) log(s *stepStats) {
	verdict := "-"
	if s.offered > 0 && s.hasP95 {
		verdict = map[bool]string{true: "pass", false: "fail"}[s.pass()]
	}
	g.r.logf("step %-9s offered %6.1f req/s achieved %6.1f req/s: n=%d p50 %.2f ms p95 %.2f ms late p95 %.2f ms failures %d [%s]",
		s.name, s.offered, s.achieved, len(s.calls), s.p50, s.p95, s.lateP95, s.failures, verdict)
	lat := make([][]float64, kindMeasure+1)
	handler := make([][]float64, kindMeasure+1)
	g.d.timer.mu.Lock()
	for _, c := range s.calls {
		lat[c.kind] = append(lat[c.kind], c.latMs)
		if h, ok := g.d.timer.ms[c.id]; ok {
			handler[c.kind] = append(handler[c.kind], h)
		}
	}
	g.d.timer.mu.Unlock()
	for k := range lat {
		if len(lat[k]) > 0 {
			g.r.logf("step %-9s %-13s n=%d p50 %.2f ms (handler %.2f ms)",
				s.name, kindName(editKind(k)), len(lat[k]), median(lat[k]), median(handler[k]))
		}
	}
}

// verify compares every checked response with a direct measurement of
// its sources (untimed, after the steps). Tenant B's sources are
// rebuilt from its edit stream.
func (g *loadgen) verify(refA []serve.UnitResult) {
	units := paperUnits()
	var places []int
	last := -1
	for _, s := range g.results {
		for _, place := range s.checked {
			if place >= 0 {
				places = append(places, place)
				last = max(last, place)
			}
		}
	}
	srcs, err := sourcesAt(newEditStream(g.r.seed, tenantBStream).take(last+1), places)
	if err != nil {
		g.r.fail("rebuild tenant B sources: %v", err)
		return
	}
	for _, s := range g.results {
		for _, c := range s.calls {
			place, ok := s.checked[c.id]
			if !ok || c.err != nil {
				continue
			}
			want := refA
			if place >= 0 {
				if want, err = fromScratch(srcs[place], units); err != nil {
					g.r.fail("request %d: reference: %v", c.id, err)
					continue
				}
			}
			var ch checks
			ch.expect(sameResults(c.results, want), "request %d: served results differ from a direct measurement", c.id)
			g.r.record(ch...)
		}
	}
}

// maxRPS searches for the highest offered rate that passes, doubling
// from the highest rate already shown to pass until a step fails, then
// bisecting to searchRes. A step whose generator ran late fails, so a
// generator starved of CPU never passes for a fast server.
func (g *loadgen) maxRPS(lo float64) (float64, error) {
	hi := 0.0
	rate := 2 * lo
	for i := 0; i < g.r.size.searchSteps; i++ {
		n := max(searchMinReq, int(rate*g.r.size.searchSec))
		s, err := g.step(fmt.Sprintf("search%d", i), rate, n)
		if err != nil {
			return 0, err
		}
		g.log(s)
		if s.pass() {
			lo = rate
		} else {
			hi = rate
		}
		if hi > 0 && (hi-lo)/lo <= searchRes {
			break
		}
		if hi == 0 {
			rate = 2 * lo
		} else {
			rate = (lo + hi) / 2
		}
	}
	return lo, nil
}

// runServed is the `served` workload.
func runServed(r *run) error {
	units := paperUnits()
	refA, err := fromScratch(designs.Sources(), units)
	if err != nil {
		return err
	}
	d, err := timedSetup(r, func() (*daemon, error) {
		dir, err := r.scratchDir("served-")
		if err != nil {
			return nil, err
		}
		c, err := cache.Open(dir)
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(c, r.tr)
		if err != nil {
			return nil, err
		}
		for _, cold := range []struct {
			tenant    string
			remeasure bool
		}{{tenantA, false}, {tenantB, true}} {
			body, err := json.Marshal(serve.Request{Tenant: cold.tenant, Sources: designs.Sources(), Units: unitRequests(units)})
			if err != nil {
				d.close()
				return nil, err
			}
			res := d.post(nil, request{id: -1, remeasure: cold.remeasure, body: body, keep: true}, time.Now())
			if res.err != nil {
				d.close()
				return nil, fmt.Errorf("cold %s request: %w", cold.tenant, res.err)
			}
			var ch checks
			ch.expect(sameResults(res.results, refA), "cold tenant %s results differ from a direct measurement", cold.tenant)
			r.record(ch...)
		}
		return d, nil
	}, (*daemon).close)
	if err != nil {
		return err
	}
	defer d.close()

	t, err := newTraffic(r.seed)
	if err != nil {
		return err
	}
	g := &loadgen{r: r, d: d, t: t}
	before := d.cache.Stats()
	// An untimed stretch of the same traffic first, so the heap, the
	// connections and the page cache are in their steady state before
	// timing starts.
	warm, err := g.closed("warmup", 1, r.size.warmN)
	if err != nil {
		return err
	}
	g.log(warm)
	// The timed phase is one caller's closed loop, in the traced run too:
	// every request's latency with nothing queued ahead of it and no idle
	// wait before it (see README for why not the open loop).
	ph := startPhase()
	defer ph.stopSampling()
	serial, err := g.closed("serial", 1, r.size.ops)
	if err != nil {
		return err
	}
	ph.end(r, len(serial.calls))
	g.log(serial)
	byKind := make([][]float64, kindMeasure+1)
	for _, c := range serial.calls {
		if r.opTracer(c.id) == nil {
			r.lat = append(r.lat, c.latMs)
			byKind[c.kind] = append(byKind[c.kind], c.latMs)
		} else {
			r.latTraced = append(r.latTraced, c.latMs)
		}
	}
	r.mixP50(byKind)
	r.tail(r.lat)
	if r.tr == nil {
		g.verify(refA)
		return nil
	}

	// The open-loop steps feed only per-layer metrics, so only the traced
	// run makes them, after the timed phase: 50 and 150 req/s, the
	// two-caller saturation step, and the max_rps search.
	light, err := g.step("light", lightRate, r.size.lightN)
	if err != nil {
		return err
	}
	g.log(light)
	heavy, err := g.step("heavy", heavyRate, r.size.heavyN)
	if err != nil {
		return err
	}
	g.log(heavy)
	sat, err := g.closed("saturate", maxConns, r.size.saturateN)
	if err != nil {
		return err
	}
	g.log(sat)
	r.layer["bench.ops_per_s"] = sat.achieved
	start := lightRate
	if heavy.pass() {
		start = heavyRate
	}
	maxRate, err := g.maxRPS(start)
	if err != nil {
		return err
	}
	g.verify(refA)
	r.logf("max_rps %.1f req/s", maxRate)
	r.layer["loadgen.max_rps"] = maxRate
	r.layer["serve.lo_p50_ms"] = light.p50
	r.layer["serve.lo_p95_ms"] = light.p95
	r.layer["serve.hi_p50_ms"] = heavy.p50
	r.layer["serve.hi_p95_ms"] = heavy.p95
	r.layer["loadgen.late_p95_ms"] = max(light.lateP95, heavy.lateP95)
	r.layer["loadgen.achieved_rps"] = heavy.achieved
	fileServeStats(r, d, g)
	ds, err := d.cache.DiskStats()
	if err != nil {
		return err
	}
	fileCacheStats(r, subStats(d.cache.Stats(), before), ds, float64(g.nextID))

	// Replay a sample of tenant B's saves, each against the save before it.
	var samples, want []int
	for i := 1; i < t.sentB && len(samples) < 10; i += max(t.sentB/10, 1) {
		samples = append(samples, i)
		want = append(want, i-1, i)
	}
	if len(samples) == 0 {
		return nil
	}
	srcs, err := sourcesAt(newEditStream(r.seed, tenantBStream).take(samples[len(samples)-1]+1), want)
	if err != nil {
		return err
	}
	jobs, err := replayJobs(srcs, samples, units)
	if err != nil {
		return err
	}
	_, err = replayAndFile(r, jobs, true, float64(len(jobs)))
	return err
}

// fileServeStats files the daemon-side per-layer metrics.
func fileServeStats(r *run, d *daemon, g *loadgen) {
	var hm, hr, wait, wire, dirty, clean, dirtyM []float64
	d.timer.mu.Lock()
	for _, s := range g.results {
		for _, c := range s.calls {
			h, ok := d.timer.ms[c.id]
			if !ok || c.err != nil {
				continue
			}
			wait = append(wait, c.waitMs)
			wire = append(wire, c.clientMs-c.waitMs-h)
			if !c.remeasure {
				hm = append(hm, h)
				continue
			}
			hr = append(hr, h)
			if ri := c.ri; ri != nil {
				dirty = append(dirty, float64(ri.DirtyUnits))
				clean = append(clean, float64(ri.CleanUnits))
				dirtyM = append(dirtyM, float64(ri.DirtyModules))
			}
		}
	}
	r.layer["serve.inflight_max"] = float64(d.timer.peak)
	d.timer.mu.Unlock()
	m := d.srv.Metrics()
	n := float64(max(g.nextID, 1))
	r.layer["serve.measure_ms"] = mean(hm)
	r.layer["serve.remeasure_ms"] = mean(hr)
	r.layer["serve.wire_ms"] = mean(wire)
	r.layer["loadgen.conn_wait_ms"] = mean(wait)
	r.layer["serve.rejected"] = float64(m.Rejected)
	r.layer["serve.sessions"] = float64(m.Sessions)
	r.layer["measure.units"] = float64(len(paperUnits()))
	r.layer["measure.dirty_units"] = mean(dirty)
	r.layer["measure.clean_units"] = mean(clean)
	r.layer["depgraph.dirty_modules"] = mean(dirtyM)
	r.layer["elab.subtree_hit_ratio"] = ratio(float64(m.Elab.Hits), float64(m.Elab.Hits+m.Elab.Misses))
	r.layer["measure.synthesized"] = float64(m.Session.Synthesized) / n
	r.layer["measure.shared"] = float64(m.Session.Shared) / n
	r.layer["measure.share_ratio"] = ratio(float64(m.Session.Shared), float64(m.Session.Planned))
}

// prevGraph builds the dependency graph of sources, for replaying a
// save made against them.
func prevGraph(sources map[string]string) (*depgraph.Graph, error) {
	d, err := hdl.ParseDesign(sources)
	if err != nil {
		return nil, err
	}
	return depgraph.Build(d, "")
}
