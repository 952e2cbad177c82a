package measure

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/parallel"
	"repro/internal/srcmetrics"
	"repro/internal/stdcell"
	"repro/internal/synth"
	"repro/internal/timing"
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
	// Synthesized counts the design points the session synthesized
	// fresh: elaborated, lowered and optimized. A flight a disk "sig"
	// record answered is not one.
	Synthesized int
	// Shared counts the signature requests answered by a flight some
	// earlier unit — possibly in a previous MeasureAll call — already
	// owned. With the disk cache off, every owned flight synthesizes,
	// so Synthesized + Shared = Planned.
	Shared int
	// MetricsReused counts the synthesized signatures whose optimized
	// netlist hashed as one the session had already measured (or a
	// remeasurement baseline held), so their synthesis metrics and
	// timing came from the netlist memo instead of the metric kernels.
	MetricsReused int
}

// Session measures batches of components of one design with the whole
// pipeline shared across them: one parsed design, one component-scoped
// elaboration cache per top module (subtree memoization across that
// component's minimization search, reference elaboration, and final
// trees), and a single-flight synthesis table keyed by design point —
// the top's hdl.Design.DesignPointHash, its full resolved parameters
// and the dedup flag, no module name and no parameter default — so
// each distinct design point is synthesized exactly once no matter how
// many units, renamed copies of one component, copies whose defaults
// differ, or MeasureAll calls land on it. The accounting search is
// memoized by the top's hdl.Design.StructuralHash, which keeps the
// top's defaults the search starts from, and the dedup verdict by the
// design-point digest. What names modules stays per unit: the disk
// component key, UniqueModules, the source metrics, and every error.
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
// are atomics, and the search, dedup, source-metric and netlist memos
// are sync.Maps (their values are pure functions of the design or of
// the netlist, so a racing duplicate compute stores the identical
// value). At
// thousand-component batch sizes the old single session mutex
// serialized the whole planning front end; nothing here is contended
// now.
type Session struct {
	design *hdl.Design

	shards [flightShards]flightShard

	minMemo   sync.Map // top's structural hash → *searchResult: the accounting search
	dedupMemo sync.Map // module's design-point digest → bool: could produce duplicate siblings
	srcMemo   sync.Map // module name → srcmetrics.Counts
	netMemo   sync.Map // optimized netlist hash → memoEntry

	components, planned, synthesized, shared, reused atomic.Int64

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

// flightFor returns key's flight, creating it, owned by a unit of top,
// when absent.
func (s *Session) flightFor(key, top string) (f *sigFlight, owned bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if f, ok := sh.m[key]; ok {
		return f, false
	}
	if sh.m == nil {
		sh.m = map[string]*sigFlight{}
	}
	f = &sigFlight{done: make(chan struct{}), top: top}
	sh.m[key] = f
	return f, true
}

// evictFlight drops f from the flight table if key still maps to it.
// Its one caller is an owner that abandons its flight to cancellation;
// a unit's private flight (see assembleUnit) was never in the table.
func (s *Session) evictFlight(key string, f *sigFlight) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if sh.m[key] == f {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// sigFlight is the single-flight synthesis of one signature: the first
// unit to request the signature computes it, everyone else waits on
// done and reads the shared record. The record holds only the
// synthesis-derived metrics (no source sums), counters, the netlist
// hash, and the timing summary — a few hundred bytes — so the table
// keeps every flight for the session's lifetime.
type sigFlight struct {
	done   chan struct{}
	top    string // the owning unit's top module, which err names
	rec    *sigRecord
	err    error
	cutoff bool // rec reuses a remeasurement baseline's metrics
}

// memoEntry is one netlist memo entry: the record whose synthesis-only
// metrics and timing every netlist with its hash shares — a flight's
// own record, or one built from a remeasurement baseline's result
// (baseline set).
type memoEntry struct {
	rec      *sigRecord
	baseline bool
}

// memoOn reports whether a measurement under opts uses the netlist
// memo: a verifying cache recomputes everything it checks, so it gets
// none.
func memoOn(opts Options) bool {
	return opts.Cache == nil || !opts.Cache.Verifying()
}

// NewSession creates a measurement session over one parsed design.
func NewSession(design *hdl.Design) *Session {
	return &Session{design: design}
}

// Stats returns a snapshot of the session's sharing counters.
func (s *Session) Stats() SessionStats {
	return SessionStats{
		Components:    int(s.components.Load()),
		Planned:       int(s.planned.Load()),
		Synthesized:   int(s.synthesized.Load()),
		Shared:        int(s.shared.Load()),
		MetricsReused: int(s.reused.Load()),
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
	rec       *componentRecord // non-nil: answered from the disk cache
	top       string
	overrides map[string]int64 // minimized parameters (nil without accounting)
	sigKey    string           // the design point's key: flight table and disk "sig" record
	compKey   string           // unit's disk key ("" without a cache)
	dedup     bool             // effective dedup flag for lowering
	hits      int              // minimization memo point-verdict hits
	misses    int
	searched  bool       // this call ran the search (minMemo missed)
	flight    *sigFlight // the registered flight (owner or waiter)
	owned     *sigFlight // non-nil: this call must synthesize the entry
	err       error      // deferred so one failed unit does not strand flights
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
	return s.measureAll(ctx, units, opts, nil)
}

// measureAll is MeasureAllCtx with, for a remeasurement that seeded the
// netlist memo from its baseline, the counter of units the baseline
// answered (nil everywhere else).
func (s *Session) measureAll(ctx context.Context, units []Unit, opts Options, cutoffs *atomic.Int64) ([]*ComponentResult, error) {
	results := make([]*ComponentResult, len(units))
	err := s.measureGroups(ctx, units, opts, cutoffs, func(i int, res *ComponentResult) error {
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MeasureStream measures every unit like MeasureAll but streams each
// result to yield instead of returning the batch, so the caller need
// not hold a thousand-component batch's results at once. Its flights
// stay in the session's table, as MeasureAll's do.
//
// yield is called exactly once per successfully measured unit with the
// unit's index and its result; calls are serialized (never concurrent)
// but arrive in completion order, not unit order. A non-nil yield
// error aborts the batch. Every result is bit-identical to
// MeasureAll's for the same unit.
func (s *Session) MeasureStream(units []Unit, opts Options, yield func(i int, res *ComponentResult) error) error {
	return s.MeasureStreamCtx(context.Background(), units, opts, yield)
}

// MeasureStreamCtx is MeasureStream under a context, with MeasureAllCtx's
// cancellation contract: unit-granular checks, abandoned flights
// resolved with the context error and evicted.
func (s *Session) MeasureStreamCtx(ctx context.Context, units []Unit, opts Options, yield func(i int, res *ComponentResult) error) error {
	return s.measureGroups(ctx, units, opts, nil, yield)
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
// The group's flights stay in the table for later calls on the session.
// cutoffs, when non-nil, counts the units whose flight a remeasurement
// baseline's memo entry answered.
//
// Flights are shared across groups: a renamed copy of a component waits
// on the flight its first copy's group owns. No deadlock is possible,
// because every group synthesizes all the flights it owns before it
// waits on any: the owner of a flight some group waits on is already
// past planning, and it never blocks before resolving that flight.
func (s *Session) measureGroups(ctx context.Context, units []Unit, opts Options, cutoffs *atomic.Int64, yield func(i int, res *ComponentResult) error) error {
	elabBefore := s.ElabStats()
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
			p := s.planUnit(ctx, units[i], opts, ecache)
			plans[j] = p
			if p.searched {
				hits.Add(int64(p.hits))
				misses.Add(int64(p.misses))
			}
			if p.owned != nil {
				owned = append(owned, p)
			}
		}
		for _, p := range owned {
			s.synthesizeFlight(ctx, p, opts, ecache, locals.Get(worker))
		}
		// Every signature of this component this call can ever own is
		// now resolved; later hits come from the flight table, not from
		// re-elaboration, so the component's cache retires here.
		s.addElabStats(ecache.Stats())
		for j, i := range idx {
			res, err := s.assembleUnit(ctx, units[i], plans[j], opts)
			if err != nil {
				return err
			}
			if f := plans[j].flight; cutoffs != nil && f != nil && f.cutoff {
				cutoffs.Add(1)
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
// shared table. A context already canceled at entry yields an error
// plan without registering a flight (so cancellation never strands a
// waiter).
func (s *Session) planUnit(ctx context.Context, u Unit, opts Options, ecache *elab.Cache) *plan {
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
		if !opts.Cache.Verifying() {
			if rec, ok := cache.Get(opts.Cache, compKey, recordCodec); ok {
				s.components.Add(1)
				return &plan{rec: rec}
			}
		}
	}

	// The design point is named by structure, never by module name or
	// default: the subtree's DesignPointHash, the full resolved
	// parameter map under no module name (so a unit measured at
	// defaults and a unit whose minimization landed on the defaults
	// name the same point), and the dedup flag. Renamed copies of a
	// component share one search, one flight and one "sig" record;
	// copies whose defaults differ share the flights they resolve alike.
	pt, err := s.design.DesignPointHash(u.Top)
	if err != nil {
		return &plan{err: err}
	}
	p := &plan{top: u.Top, compKey: compKey}
	if u.UseAccounting {
		sr, searched, err := s.minimized(u.Top, ecache)
		if err != nil {
			return &plan{err: err}
		}
		p.overrides = sr.params
		p.hits, p.misses = sr.hits, sr.misses
		p.searched = searched
	}
	mod, err := s.design.Module(u.Top)
	if err != nil {
		return &plan{err: err, hits: p.hits, misses: p.misses}
	}
	full, err := elab.ResolveParams(mod, p.overrides)
	if err != nil {
		return &plan{err: err, hits: p.hits, misses: p.misses}
	}

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
	// The flight table and the disk use one key, so a sweep looks each
	// "sig" record up at most once.
	p.sigKey = cache.KindKey("sig", append([]string{
		pt, elab.ParamSignature("", full), "dedup=" + dedupKey,
	}, opts.CacheKeyParts()...)...)

	s.components.Add(1)
	s.planned.Add(1)
	f, owned := s.flightFor(p.sigKey, u.Top)
	p.flight = f
	if owned {
		p.owned = f
	} else {
		s.shared.Add(1)
	}
	return p
}

// searchResult is the outcome of one top module's accounting search:
// the minimized parameters and the search's point-verdict counters.
// It is shared by every plan that reads it and is never mutated.
type searchResult struct {
	params       map[string]int64
	hits, misses int
}

// minimized returns top's accounting search result, running the search
// (against the group's elaboration cache) only the first time the
// session asks for a top of its StructuralHash; searched reports
// whether this call ran it. The memo is sound for the reasons the dedup
// and source-metric memos are: the session's design never changes, and
// the minimized parameters do not depend on the worker count or on what
// the elaboration cache already holds. Nor do they depend on a module
// name or a dead default: the search reads parameter names, which the
// structural hash keeps, starts from the top's defaults, which it keeps
// too, and two tops of one structural hash elaborate alike at every
// probe, since a probe reads no default the hash cuts. Failed searches
// are not stored, so each unit's search error recurs and names its own
// modules. Two racing first calls both search; the first store wins,
// and both computed the same value.
func (s *Session) minimized(top string, ecache *elab.Cache) (sr *searchResult, searched bool, err error) {
	st, err := s.design.StructuralHash(top)
	if err != nil {
		return nil, false, err
	}
	if v, ok := s.minMemo.Load(st); ok {
		return v.(*searchResult), false, nil
	}
	params, memo, err := minimizeParams(s.design, top, ecache)
	if err != nil {
		return nil, true, err
	}
	sr = &searchResult{params: params, hits: memo.hits, misses: memo.misses}
	s.minMemo.LoadOrStore(st, sr)
	return sr, true, nil
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
// module DesignPointHash (the property is parameter-independent and
// survives a bijective renaming). A name the design does not declare
// is skipped: elaboration reports it if a branch it takes reaches it.
func (s *Session) dedupPossible(name string, visiting map[string]bool) (bool, error) {
	pt, err := s.design.DesignPointHash(name)
	if err != nil {
		return false, err
	}
	if v, ok := s.dedupMemo.Load(pt); ok {
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
			if !s.design.HasModule(ch) {
				continue
			}
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
	s.dedupMemo.Store(pt, v)
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
// it, optimizes, extracts the synthesis-derived metrics, hashes the
// optimized netlist and summarizes its timing, and persists the record.
// A netlist that hashes as one already in the session's netlist memo
// skips the metric kernels and the timing summary. done is always
// closed, error or not.
//
// A context canceled before the entry is computed resolves the flight
// with the context error and evicts its key from the shared table: the
// waiters that already hold the flight fail with the owner's
// cancellation, but any later request for the signature registers a
// fresh flight and synthesizes it — an abandoned flight is never left
// to poison the session.
func (s *Session) synthesizeFlight(ctx context.Context, p *plan, opts Options, ecache *elab.Cache, ws *Workspace) {
	f := p.owned
	defer close(f.done)
	if err := ctx.Err(); err != nil {
		f.err = fmt.Errorf("measure: synthesis of %s abandoned: %w", p.top, err)
		s.evictFlight(p.sigKey, f)
		return
	}
	compute := func() (*sigRecord, error) {
		s.synthesized.Add(1)
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
		nl := synres.Optimized
		rec := &sigRecord{
			InstanceCount: inst.CountInstances(),
			Deduped:       synres.Deduped,
			NetlistHash:   nl.Hash(),
		}
		// The netlist memo. Every metric kernel (Stats, cones, LUT
		// mapping, power, areas, timing) reads only what Netlist.Hash
		// covers — cells, RAMs, ports, net count, constants — and never
		// a net name, and the cell library and FPGA options are fixed.
		// So a netlist that hashes as a memoized one has its synthesis
		// metrics and timing, and the record equals a full compute's.
		memo := memoOn(opts)
		if memo {
			if v, ok := s.netMemo.Load(rec.NetlistHash); ok {
				e := v.(memoEntry)
				f.cutoff = e.baseline
				rec.Metrics, rec.Timing = e.rec.Metrics, e.rec.Timing
				s.reused.Add(1)
				return rec, nil
			}
		}
		// The timing summary runs after the metric kernels, while the
		// netlist's topological order they built is still memoized.
		rec.Metrics = synthMetrics(synres, ws)
		rec.Timing = timing.Summarize(nl, stdcell.Default180nm(), &ws.timing)
		if memo {
			// A racing duplicate computed the identical values.
			s.netMemo.LoadOrStore(rec.NetlistHash, memoEntry{rec: rec})
		}
		return rec, nil
	}
	// A nil cache runs compute directly and never consults the key.
	rec, _, err := cache.Do(opts.Cache, p.sigKey, sigRecordCodec, compute, compareSigRecords)
	if err != nil {
		f.err = err
		return
	}
	// The flight table outlives the call, so it retains only the
	// record: the synthesis result (netlists, instance tree, report)
	// dies with this call.
	f.rec = rec
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
func (s *Session) assembleUnit(ctx context.Context, u Unit, p *plan, opts Options) (*ComponentResult, error) {
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
	if f.err != nil && f.top != u.Top {
		// The error names the owning unit's modules. This unit runs
		// its own synthesis, outside the table, so the error it
		// returns names its own; a structurally equal design point
		// fails alike, so this runs only on the way to an error (or
		// after the owner's call was canceled).
		own := *p
		own.owned = &sigFlight{done: make(chan struct{}), top: u.Top}
		ws := getWorkspace()
		s.synthesizeFlight(ctx, &own, opts, elab.NewCache(), ws)
		putWorkspace(ws)
		f = own.owned
	}
	if f.err != nil {
		return nil, f.err
	}

	res := &ComponentResult{
		InstanceCount:    f.rec.InstanceCount,
		DedupedInstances: f.rec.Deduped,
		NetlistHash:      f.rec.NetlistHash,
		Timing:           f.rec.Timing,
		MinimizedParams:  maps.Clone(p.overrides), // the search memo keeps p.overrides
		ElabCacheHits:    p.hits,
		ElabCacheMisses:  p.misses,
	}
	modules, err := s.design.TransitiveModules(u.Top)
	if err != nil {
		return nil, err
	}
	res.UniqueModules = modules
	m := *f.rec.Metrics // copy: the record is shared across units
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
	}, compareRecords)
	if err != nil {
		return nil, err
	}
	if hit {
		return rec.toResult(), nil
	}
	return res, nil
}
