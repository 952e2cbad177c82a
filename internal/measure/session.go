package measure

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/parallel"
	"repro/internal/srcmetrics"
	"repro/internal/synth"
)

// Unit is one measurement request in a Session batch: a top module
// measured with or without the accounting procedure.
type Unit struct {
	Top           string
	UseAccounting bool
}

// SessionStats summarizes the cross-component sharing one Session
// achieved. Counters accumulate across MeasureAll calls.
type SessionStats struct {
	// Components is the number of units measured (disk-cache hits
	// included).
	Components int
	// Planned counts the units whose parameter binding was resolved
	// this session, i.e. that requested a signature from the shared
	// synthesis table (disk-cache hits skip planning entirely).
	Planned int
	// Synthesized counts the distinct signatures the table synthesized
	// fresh.
	Synthesized int
	// Shared counts the signature requests answered by an entry some
	// earlier unit — possibly in a previous MeasureAll call — already
	// synthesized.
	Shared int
}

// Session measures batches of components of one design with the whole
// pipeline shared across them: one parsed design, one component-scoped
// elaboration cache per top module (subtree memoization across that
// component's minimization search, reference elaboration, and final
// trees), and a single-flight synthesis table keyed by the canonical
// parameter signature, so each distinct (module, resolved parameters)
// design point is synthesized and metric-extracted exactly once no
// matter how many units — or MeasureAll calls — land on it.
//
// Every result is bit-identical to measuring the component alone with
// fresh, uncached elaboration and synthesis (the golden tests pin this
// against a test-only reference pipeline): the elaboration cache's
// entries are bit-identical to uncached elaboration, signatures only
// collapse when the synthesized netlist is provably identical, and the
// workspace kernels are pinned to the fresh ones.
//
// A Session must not outlive its design and must not be shared across
// designs. It is safe for concurrent use.
//
// All session state is sharded or lock-free: the flight table is
// split across flightShards key-hashed shards, the sharing counters
// are atomics, and the dedup/source-metric memos are sync.Maps (their
// values are pure functions of the design, so a racing duplicate
// compute stores the identical value). At thousand-component batch
// sizes the old single session mutex serialized the whole planning
// front end; nothing here is contended now.
type Session struct {
	design *hdl.Design

	shards [flightShards]flightShard

	dedupMemo sync.Map // module name → bool: could produce duplicate siblings
	srcMemo   sync.Map // module name → srcmetrics.Counts

	components, planned, synthesized, shared atomic.Int64

	emu       sync.Mutex
	elabStats elab.CacheStats // aggregated across component elaboration caches
}

// flightShards is the flight table's shard count; signature keys are
// SHA-256-derived so any hash of them spreads uniformly.
const flightShards = 32

// flightShard is one shard of the single-flight synthesis table.
type flightShard struct {
	mu sync.Mutex
	m  map[string]*sigFlight
}

// shardOf picks the shard owning key (FNV-1a over the key bytes).
func (s *Session) shardOf(key string) *flightShard {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h%flightShards]
}

// flightFor returns key's flight, creating (and owning) it when absent.
func (s *Session) flightFor(key string) (f *sigFlight, owned bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.m[key]; ok {
		return f, false
	}
	if sh.m == nil {
		sh.m = map[string]*sigFlight{}
	}
	f = &sigFlight{done: make(chan struct{})}
	sh.m[key] = f
	return f, true
}

// evictFlight drops key from the flight table, releasing the optimized
// netlist it retains. Two callers: a streaming group, once every unit
// that could wait on its flights has assembled, and an owner that
// abandons its flight to cancellation.
func (s *Session) evictFlight(key string) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// sigFlight is the single-flight synthesis of one signature: the first
// unit to request the signature computes it, everyone else waits on
// done and reads the shared entry.
type sigFlight struct {
	done      chan struct{}
	res       *synth.Result
	metrics   *Metrics // synthesis-derived metrics only (no source sums)
	instCount int
	err       error
}

// NewSession creates a measurement session over one parsed design.
func NewSession(design *hdl.Design) *Session {
	return &Session{design: design}
}

// Design returns the design the session measures.
func (s *Session) Design() *hdl.Design { return s.design }

// Stats returns a snapshot of the session's sharing counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Components:  int(s.components.Load()),
		Planned:     int(s.planned.Load()),
		Synthesized: int(s.synthesized.Load()),
		Shared:      int(s.shared.Load()),
	}
}

// ElabStats returns the cumulative subtree counters aggregated across
// every component elaboration cache the session has retired.
func (s *Session) ElabStats() elab.CacheStats {
	s.emu.Lock()
	defer s.emu.Unlock()
	return s.elabStats
}

// addElabStats folds one retired component cache into the aggregate.
func (s *Session) addElabStats(st elab.CacheStats) {
	s.emu.Lock()
	s.elabStats.Hits += st.Hits
	s.elabStats.Misses += st.Misses
	s.elabStats.InstancesReused += st.InstancesReused
	s.emu.Unlock()
}

// plan is the outcome of resolving one unit before synthesis.
type plan struct {
	rec        *componentRecord // non-nil: answered from the disk cache
	top        string
	overrides  map[string]int64 // minimized parameters (nil without accounting)
	sigKey     string           // shared-table key (in-memory, this session)
	compKey    string           // unit's disk key ("" without a cache)
	diskSigKey string           // signature's disk key ("" without a cache)
	dedup      bool             // effective dedup flag for lowering
	hits       int              // minimization memo point-verdict hits
	misses     int
	flight     *sigFlight // the registered flight (owner or waiter)
	owned      *sigFlight // non-nil: this call must synthesize the entry
	err        error      // deferred so one failed unit does not strand flights
}

// batchPrepThreshold is the unit count above which a batch pays for
// one up-front cache-directory snapshot, which replaces per-entry open
// calls. Small batches (the 18-component paper corpus) skip it: the
// scan would cost more than it saves there.
const batchPrepThreshold = 32

// prepBatch amortizes a large batch's cache probes: it takes one
// cache-directory snapshot that lets cold keys skip their per-entry
// open(2). (Module hashes need no preparation: Parse computed them.)
// Returns nil — meaning "probe the disk as before" — for small
// batches, cache-off runs, and verify mode.
func (s *Session) prepBatch(n int, opts Options) *cache.Snapshot {
	if opts.Cache == nil || n < batchPrepThreshold || opts.Cache.Verifying() {
		return nil
	}
	snap, err := opts.Cache.Snapshot()
	if err != nil {
		return nil // degraded to per-entry probes, never to failure
	}
	return snap
}

// MeasureAll measures every unit of the batch, sharing the parse, the
// elaboration cache, and one synthesis per distinct signature across
// all of them. Results are returned in unit order and are bit-identical
// at every concurrency and with the disk cache off, cold, or warm.
//
// The flights the batch synthesizes stay in the session's table, so a
// later MeasureAll call on the same session answers every signature it
// shares with this one without synthesizing it again (the paper
// workload's extension reuses Figure 6's flights this way).
func (s *Session) MeasureAll(units []Unit, opts Options) ([]*ComponentResult, error) {
	return s.MeasureAllCtx(context.Background(), units, opts)
}

// MeasureAllCtx is MeasureAll under a context: cancellation is observed
// at unit granularity — before a unit is planned (skipping its
// minimization search), before each owned signature is synthesized, and
// while waiting on a flight another goroutine owns — so a canceled
// batch stops doing new elaboration and synthesis promptly and returns
// an error wrapping ctx.Err(). One in-flight signature synthesis is
// never interrupted mid-kernel.
//
// A flight this call owned but abandoned to cancellation is resolved
// with the context error and evicted from the shared table, so a
// concurrent or later call on the same session re-registers and
// synthesizes it fresh: cancellation can fail the calls that raced with
// it, but can never poison the session (the ctx tests pin a post-cancel
// MeasureAll bit-identical to a fresh session's).
func (s *Session) MeasureAllCtx(ctx context.Context, units []Unit, opts Options) ([]*ComponentResult, error) {
	return s.measureAll(ctx, units, opts, searchConcurrency(opts.Concurrency))
}

// measureAll is MeasureAllCtx with the minimization search's inner
// pool size given by the entry point.
func (s *Session) measureAll(ctx context.Context, units []Unit, opts Options, inner int) ([]*ComponentResult, error) {
	results := make([]*ComponentResult, len(units))
	err := s.measureGroups(ctx, units, opts, inner, false, func(i int, res *ComponentResult) error {
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MeasureStream measures every unit like MeasureAll but streams each
// result to yield instead of returning the batch, and retires each
// top-module group's flight-table entries as soon as the group's units
// have been assembled. Peak memory therefore stays bounded by the
// in-flight groups (plus whatever yield retains) instead of growing
// with every distinct signature's optimized netlist for the session's
// lifetime — at a thousand components, the difference between a
// bounded working set and retaining a thousand netlists.
//
// yield is called exactly once per successfully measured unit with the
// unit's index and its result; calls are serialized (never concurrent)
// but arrive in completion order, not unit order, and the result is
// only guaranteed valid during the call — retain a projection, not the
// pointer, to keep eviction effective. A non-nil yield error aborts
// the batch. Every result is bit-identical to MeasureAll's for the
// same unit. Flight eviction is safe because a signature key embeds
// its top module's name, so every unit that can share a flight is in
// the evicting group; a later call measuring the same top synthesizes
// it again (through the warm disk cache when one is attached), and the
// session's Synthesized counter counts it again.
func (s *Session) MeasureStream(units []Unit, opts Options, yield func(i int, res *ComponentResult) error) error {
	return s.MeasureStreamCtx(context.Background(), units, opts, yield)
}

// MeasureStreamCtx is MeasureStream under a context, with MeasureAllCtx's
// cancellation contract: unit-granular checks, abandoned flights
// resolved with the context error and evicted.
func (s *Session) MeasureStreamCtx(ctx context.Context, units []Unit, opts Options, yield func(i int, res *ComponentResult) error) error {
	return s.measureGroups(ctx, units, opts, searchConcurrency(opts.Concurrency), true, yield)
}

// searchConcurrency is a batch's minimization-search pool size: when
// the group pool is parallel the search's inner candidate pool is
// serialized so the machine is not oversubscribed. MeasureComponent,
// whose one-unit batch has no sibling group, bypasses it and searches
// with the full pool.
func searchConcurrency(concurrency int) int {
	if parallel.Workers(concurrency) > 1 {
		return 1
	}
	return concurrency
}

// measureGroups is the one batch loop behind MeasureAllCtx and
// MeasureStreamCtx. The batch is processed grouped by top module, one
// group per pool worker, each group owning a fresh elaboration cache
// that dies with it. Almost all the reuse that cache offers is
// component-local anyway — full-tree keys are hierarchical paths rooted
// at the top module name, so only a component's own reference
// elaboration and flights can ever hit them, and cross-component
// report-fragment hits are limited to shared library subtrees — while a
// batch-global cache accretes every component's trees and fragments
// into the live heap, and the garbage-collector mark time that costs
// across a cold sweep outweighs the extra hits.
//
// Each group plans its units — the minimization search for accounting
// units, the declared defaults otherwise (units with a warm disk-cache
// record skip planning entirely) — registers their canonical signatures
// in the shared flight table, synthesizes the distinct signatures it
// owns exactly once, then assembles each unit from its signature's
// shared entry plus its own per-module source metrics, persists it
// through the disk cache, and hands it to yield (calls serialized).
// With evict, the group's owned flights leave the table once its units
// are assembled; without, they stay for later calls on the session.
func (s *Session) measureGroups(ctx context.Context, units []Unit, opts Options, inner int, evict bool, yield func(i int, res *ComponentResult) error) error {
	elabBefore := s.ElabStats()
	snap := s.prepBatch(len(units), opts)

	var tops []string
	groups := map[string][]int{}
	for i, u := range units {
		if _, ok := groups[u.Top]; !ok {
			tops = append(tops, u.Top)
		}
		groups[u.Top] = append(groups[u.Top], i)
	}

	var ymu sync.Mutex
	var hits, misses atomic.Int64
	// Each worker holds one scratch workspace from the process-wide
	// pool for its whole run, so steady-state synthesis and metric
	// extraction reuse buffers instead of reallocating per flight.
	locals := parallel.NewLocal(opts.Concurrency, getWorkspace)
	err := parallel.ForEachWorker(opts.Concurrency, len(tops), func(worker, gi int) error {
		ecache := elab.NewCache()
		idx := groups[tops[gi]]
		// Planning errors are carried in the plan, not returned, so every
		// registered flight has an owner that resolves it even when a
		// sibling unit fails: synthesizeFlight closes done
		// unconditionally, so concurrent calls waiting on an owned flight
		// cannot deadlock.
		plans := make([]*plan, len(idx))
		var owned []*plan
		for j, i := range idx {
			p := s.planUnit(ctx, units[i], opts, inner, ecache, snap)
			plans[j] = p
			hits.Add(int64(p.hits))
			misses.Add(int64(p.misses))
			if p.owned != nil {
				owned = append(owned, p)
			}
		}
		for _, p := range owned {
			s.synthesizeFlight(ctx, p, opts, ecache, locals.Get(worker), snap)
		}
		// Every signature of this component this call can ever own is
		// now resolved; later hits come from the flight table, not from
		// re-elaboration, so the component's cache retires here.
		s.addElabStats(ecache.Stats())
		if evict {
			// Evict only the flights this group owns: every one is
			// resolved, and waiters holding the pointer — a concurrent
			// call that planned the same top — are unaffected by the map
			// delete. A flight some other call owns stays put.
			defer func() {
				for _, p := range owned {
					s.evictFlight(p.sigKey)
				}
			}()
		}
		for j, i := range idx {
			res, err := s.assembleUnit(ctx, units[i], plans[j], opts, snap)
			if err != nil {
				return err
			}
			ymu.Lock()
			yerr := yield(i, res)
			ymu.Unlock()
			if yerr != nil {
				return yerr
			}
		}
		return nil
	})
	for _, w := range locals.All() {
		putWorkspace(w)
	}
	if opts.ElabStats != nil {
		opts.ElabStats.Add(s.ElabStats().Sub(elabBefore), int(hits.Load()), int(misses.Load()))
	}
	return err
}

// planUnit resolves one unit's parameter binding against its
// component's elaboration cache and registers its signature in the
// shared table. snap, when non-nil, is the batch's cache-directory
// snapshot: keys it reports absent skip their disk probe. A context
// already canceled at entry yields an error plan without registering a
// flight (so cancellation never strands a waiter).
func (s *Session) planUnit(ctx context.Context, u Unit, opts Options, inner int, ecache *elab.Cache, snap *cache.Snapshot) *plan {
	if err := ctx.Err(); err != nil {
		return &plan{err: fmt.Errorf("measure: plan %s: %w", u.Top, err)}
	}
	var compKey string
	if opts.Cache != nil {
		k, err := componentKey(s.design, u.Top, u.UseAccounting, opts)
		if err != nil {
			return &plan{err: err}
		}
		compKey = k
		if !opts.Cache.Verifying() && snap.MayContain(compKey) {
			if rec, ok := cache.Fetch(opts.Cache, compKey, recordCodec); ok {
				s.components.Add(1)
				return &plan{rec: rec}
			}
		}
	}

	p := &plan{top: u.Top, compKey: compKey}
	if u.UseAccounting {
		params, memo, err := minimizeParams(s.design, u.Top, inner, ecache)
		if err != nil {
			return &plan{err: err}
		}
		p.overrides = params
		p.hits, p.misses = memo.counters()
	}
	// Canonical signature: the full resolved parameter map, so a unit
	// measured at defaults and a unit whose minimization landed on the
	// defaults name the same design point.
	full, err := s.resolvedParams(u.Top, p.overrides)
	if err != nil {
		return &plan{err: err, hits: p.hits, misses: p.misses}
	}
	sig := elab.ParamSignature(u.Top, full)

	// The hierarchy decides whether the dedup flag is part of the key:
	// when no parent anywhere under the top can instantiate the same
	// (module, parameters) twice, the single-instance rule never fires
	// and lowering is bit-identical with the flag on or off, so the
	// with- and without-accounting sweeps share one synthesis.
	possible, err := s.dedupPossible(u.Top, map[string]bool{})
	if err != nil {
		return &plan{err: err, hits: p.hits, misses: p.misses}
	}
	p.dedup = u.UseAccounting
	dedupKey := "any"
	if possible {
		dedupKey = fmt.Sprintf("%t", p.dedup)
	}
	p.sigKey = cache.Key(append([]string{
		"session-sig", sig, "dedup=" + dedupKey,
	}, opts.CacheKeyParts()...)...)
	if opts.Cache != nil {
		// The disk form of the signature entry additionally hashes the
		// subtree sources: the in-memory table lives and dies with one
		// parsed design, the disk entry must name which sources the
		// design point was synthesized from.
		st, err := s.design.SubtreeHash(u.Top)
		if err != nil {
			return &plan{err: err, hits: p.hits, misses: p.misses}
		}
		p.diskSigKey = cache.KindKey("sig", append([]string{
			st, sig, "dedup=" + dedupKey,
		}, opts.CacheKeyParts()...)...)
	}

	s.components.Add(1)
	s.planned.Add(1)
	f, owned := s.flightFor(p.sigKey)
	p.flight = f
	if owned {
		s.synthesized.Add(1)
		p.owned = f
	} else {
		s.shared.Add(1)
	}
	return p
}

// resolvedParams returns the full parameter map of top under the given
// overrides: declared defaults resolved left to right, overridden
// values replacing them.
func (s *Session) resolvedParams(top string, overrides map[string]int64) (map[string]int64, error) {
	mod, err := s.design.Module(top)
	if err != nil {
		return nil, err
	}
	full, err := defaultParams(mod)
	if err != nil {
		return nil, err
	}
	for name, v := range overrides {
		if _, ok := full[name]; !ok {
			return nil, fmt.Errorf("measure: module %s has no parameter %q", top, name)
		}
		full[name] = v
	}
	return full, nil
}

// dedupPossible reports whether elaborating module name could ever
// yield two sibling instances of the same (module, parameters) design
// point — the only shape the single-instance rule acts on. It is a
// conservative static over-approximation on the AST, so planning needs
// no elaboration: duplicate siblings require a parent whose body
// instantiates the same module name more than once, or instantiates
// inside a generate loop, anywhere in the hierarchy. A false negative
// is impossible; a false positive only costs the with/without sweeps a
// shared synthesis, never correctness. Verdicts are memoized per
// module name (the property is parameter-independent).
func (s *Session) dedupPossible(name string, visiting map[string]bool) (bool, error) {
	if v, ok := s.dedupMemo.Load(name); ok {
		return v.(bool), nil
	}
	var v bool
	if visiting[name] {
		// Instantiation cycle: elaboration will reject the design; stay
		// conservative here and let that error surface downstream.
		return true, nil
	}
	visiting[name] = true
	defer delete(visiting, name)
	mod, err := s.design.Module(name)
	if err != nil {
		return false, err
	}
	counts := map[string]int{}
	children := map[string]bool{}
	v = scanDedupItems(mod.Items, false, counts, children)
	if !v {
		for ch := range children {
			cv, err := s.dedupPossible(ch, visiting)
			if err != nil {
				return false, err
			}
			if cv {
				v = true
				break
			}
		}
	}
	// A racing duplicate compute stores the same deterministic verdict.
	s.dedupMemo.Store(name, v)
	return v, nil
}

// scanDedupItems walks one module body (descending into generate
// blocks) and reports whether it can stamp the same child module name
// twice: two instantiation statements of one module, or any
// instantiation inside a generate for loop. Instantiated module names
// are collected into children for the hierarchy recursion.
func scanDedupItems(items []hdl.Item, inLoop bool, counts map[string]int, children map[string]bool) bool {
	for _, it := range items {
		switch v := it.(type) {
		case *hdl.Instance:
			children[v.ModuleName] = true
			if inLoop {
				return true
			}
			counts[v.ModuleName]++
			if counts[v.ModuleName] > 1 {
				return true
			}
		case *hdl.GenFor:
			if scanDedupItems(v.Body, true, counts, children) {
				return true
			}
		case *hdl.GenIf:
			// Branches are exclusive at elaboration time; counting both
			// into one tally only over-approximates.
			if scanDedupItems(v.Then, inLoop, counts, children) {
				return true
			}
			if scanDedupItems(v.Else, inLoop, counts, children) {
				return true
			}
		}
	}
	return false
}

// synthesizeFlight computes one shared-table entry, routed through the
// disk cache's signature-level records: a warm "sig" entry answers the
// flight without elaborating or synthesizing anything (the incremental
// remeasurement fast path for design points whose subtree sources are
// unchanged); a miss elaborates the design point against the
// component's elaboration cache (reusing every subtree the
// minimization search or reference elaboration already built — a unit
// measured at its defaults reuses the reference tree whole), lowers
// it, optimizes, extracts the synthesis-derived metrics, and persists
// the record. done is always closed, error or not.
//
// A context canceled before the entry is computed resolves the flight
// with the context error and evicts its key from the shared table: the
// waiters that already hold the flight fail with the owner's
// cancellation, but any later request for the signature registers a
// fresh flight and synthesizes it — an abandoned flight is never left
// to poison the session.
func (s *Session) synthesizeFlight(ctx context.Context, p *plan, opts Options, ecache *elab.Cache, ws *Workspace, snap *cache.Snapshot) {
	f := p.owned
	defer close(f.done)
	if err := ctx.Err(); err != nil {
		f.err = fmt.Errorf("measure: synthesis of %s abandoned: %w", p.top, err)
		s.evictFlight(p.sigKey)
		return
	}
	compute := func() (*sigRecord, error) {
		inst, report, err := elab.ElaborateOpts(s.design, p.top, p.overrides, elab.Options{Cache: ecache})
		if err != nil {
			return nil, err
		}
		synres, err := synth.SynthesizeInstance(inst, report, synth.LowerOptions{
			DedupInstances: p.dedup,
			Workspace:      ws.synth,
		})
		if err != nil {
			return nil, err
		}
		// Metrics are extracted before Slim trims the netlist's derived
		// tables in place.
		metrics := synthMetrics(synres, ws)
		slim := synres.Slim()
		return &sigRecord{
			Metrics:       metrics,
			InstanceCount: inst.CountInstances(),
			Deduped:       slim.Deduped,
			Optimized:     slim.Optimized,
		}, nil
	}
	// A nil cache runs compute directly (p.diskSigKey is "" then and
	// never consulted). The snapshot hint lets cold signature keys skip
	// the per-entry open a Get would waste.
	rec, _, err := cache.Do(opts.Cache, p.diskSigKey, sigRecordCodec, compute, compareSigRecords, snap)
	if err != nil {
		f.err = err
		return
	}
	// The flight table outlives the call, so it retains only the
	// record's projection — the optimized netlist and the lowering
	// counters. Keeping the raw netlist, instance tree, and report would
	// pin every signature's full elaboration for the session's lifetime,
	// and that live-heap growth costs more in garbage-collector mark
	// time across a batch than the fields are worth.
	f.metrics = rec.Metrics
	f.instCount = rec.InstanceCount
	f.res = &synth.Result{Optimized: rec.Optimized, Deduped: rec.Deduped}
}

// sourceCounts memoizes one module's software metrics for the life of
// the session. The counts are a pure function of the parsed design, and
// every unit sums them over its transitive module set, so without the
// memo a batch re-formats each shared library module's source once per
// unit that includes it.
func (s *Session) sourceCounts(name string) (srcmetrics.Counts, error) {
	if c, ok := s.srcMemo.Load(name); ok {
		return c.(srcmetrics.Counts), nil
	}
	mod, err := s.design.Module(name)
	if err != nil {
		return srcmetrics.Counts{}, err
	}
	c := srcmetrics.MeasureModule(mod)
	// Racing duplicates compute the identical pure-function value.
	s.srcMemo.Store(name, c)
	return c, nil
}

// assembleUnit builds one unit's result from its plan and the shared
// synthesis table, persisting it through the disk cache. Waiting on a
// flight another goroutine owns is bounded by the context: a canceled
// waiter stops waiting and returns the context error (the flight
// itself, owned elsewhere, is unaffected).
func (s *Session) assembleUnit(ctx context.Context, u Unit, p *plan, opts Options, snap *cache.Snapshot) (*ComponentResult, error) {
	if p.rec != nil {
		return p.rec.toResult(), nil
	}
	if p.err != nil {
		return nil, p.err
	}
	f := p.flight
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("measure: assemble %s: %w", u.Top, ctx.Err())
	}
	if f.err != nil {
		return nil, f.err
	}

	res := &ComponentResult{
		InstanceCount:    f.instCount,
		DedupedInstances: f.res.Deduped,
		Synth:            f.res,
		MinimizedParams:  p.overrides,
		ElabCacheHits:    p.hits,
		ElabCacheMisses:  p.misses,
	}
	modules, err := s.design.TransitiveModules(u.Top)
	if err != nil {
		return nil, err
	}
	res.UniqueModules = modules
	m := *f.metrics // copy: the entry is shared across units
	for _, name := range modules {
		src, err := s.sourceCounts(name)
		if err != nil {
			return nil, err
		}
		m.Stmts += src.Stmts
		m.LoC += src.LoC
	}
	res.Metrics = &m

	if opts.Cache == nil {
		return res, nil
	}
	// In verify mode the assembled result is compared against the
	// stored record. A hit serves the record, which carries no search
	// counters; a miss keeps this run's.
	rec, hit, err := cache.Do(opts.Cache, p.compKey, recordCodec, func() (*componentRecord, error) {
		return recordOf(res), nil
	}, compareRecords, snap)
	if err != nil {
		return nil, err
	}
	if hit {
		return rec.toResult(), nil
	}
	return res, nil
}
