package measure

import (
	"context"
	"fmt"
	"maps"
	"slices"
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
	// Components is the number of units measured.
	Components int
	// Planned counts the units whose parameter binding was resolved
	// this session, i.e. that requested a signature from the shared
	// synthesis table. Every unit is planned, with the disk cache off,
	// cold or warm, so Planned always equals Components.
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
// design-point digest. The disk cache persists exactly these two
// memos, under keys of the same structure: one "search" record per
// structural hash and one "sig" record per design point. Every unit is
// planned and assembled in memory from them, its TransitiveModules
// and the parse-time source counts of those modules; what names
// modules stays per unit: UniqueModules, the source metrics, and every
// error.
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
// The search memo and the flight table are where computing each key
// once lives: both hold single-flight entries, so a session runs or
// reads each search and each design point once, and the disk cache
// behind them is a plain read-through. The dedup and netlist memos'
// values are pure functions of the design or of the netlist, so a
// racing duplicate compute stores the identical value. The four memos
// are sync.Maps and the sharing counters atomics, so no session mutex
// serializes the planning of a thousand-component batch.
type Session struct {
	design *hdl.Design

	flights   sync.Map // design point's "sig" key → *sigFlight: the synthesis
	minMemo   sync.Map // top's structural hash → *searchFlight: the accounting search
	dedupMemo sync.Map // module's design-point digest → bool: could produce duplicate siblings
	netMemo   sync.Map // optimized netlist hash → memoEntry

	components, planned, synthesized, shared, reused atomic.Int64

	emu       sync.Mutex
	elabStats elab.CacheStats // aggregated across component elaboration caches
}

// flightFor returns key's flight, creating it, owned by a unit of top,
// when absent.
func (s *Session) flightFor(key, top string) (f *sigFlight, owned bool) {
	if v, ok := s.flights.Load(key); ok {
		return v.(*sigFlight), false
	}
	f = &sigFlight{done: make(chan struct{}), top: top}
	if v, loaded := s.flights.LoadOrStore(key, f); loaded {
		return v.(*sigFlight), false
	}
	return f, true
}

// sigFlight is the single-flight synthesis of one signature: the first
// unit to request the signature computes it, everyone else waits on
// done and reads the shared record. The record holds only the
// synthesis-derived metrics (no source sums), counters, the netlist
// hash, and the timing summary — a few hundred bytes — so the table
// keeps every flight for the session's lifetime.
type sigFlight struct {
	done      chan struct{}
	top       string // the owning unit's top module, which err names
	rec       *sigRecord
	err       error
	abandoned bool // err is the owner's cancellation, not the design's
	cutoff    bool // rec reuses a remeasurement baseline's metrics
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
	top       string
	overrides map[string]int64 // minimized parameters (nil without accounting)
	sigKey    string           // the design point's key: flight table and disk "sig" record
	dedup     bool             // effective dedup flag for lowering
	hits      int              // minimization memo point-verdict hits
	misses    int
	searched  bool       // this call owned the search (minMemo missed)
	flight    *sigFlight // the registered flight (owner or waiter)
	owned     *sigFlight // non-nil: this call must synthesize the entry
	err       error      // deferred so one failed unit does not strand flights
}

// groupCache is one component group's elaboration cache, created on
// first use: a group whose searches and flights the disk or the
// session answers never elaborates, so it never builds one.
type groupCache struct{ c *elab.Cache }

func (g *groupCache) get() *elab.Cache {
	if g.c == nil {
		g.c = elab.NewCache()
	}
	return g.c
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
// with the context error and evicted from the shared table. A
// concurrent call already waiting on it synthesizes the design point
// itself, and a later call re-registers it, so one call's cancellation
// fails only that call and never poisons the session (the ctx tests
// pin a waiter's result and a post-cancel MeasureAll bit-identical to
// a fresh session's).
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
// resolved with the context error and evicted, and their waiters in
// other calls unharmed.
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
// units (run once per structure, or read from its disk "search"
// record), the declared defaults otherwise — registers their canonical
// signatures in the shared flight table, synthesizes the distinct
// signatures it owns exactly once (or reads their "sig" records), then
// assembles each unit in memory from its signature's shared entry plus
// its own per-module source metrics and hands it to yield (calls
// serialized).
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
		var ecache groupCache
		idx := groups[tops[gi]]
		// Planning errors are carried in the plan, not returned, so every
		// registered flight has an owner that resolves it even when a
		// sibling unit fails: synthesizeFlight closes done
		// unconditionally, so concurrent calls waiting on an owned flight
		// cannot deadlock.
		plans := make([]*plan, len(idx))
		var owned []*plan
		for j, i := range idx {
			p := s.planUnit(ctx, units[i], opts, &ecache)
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
			s.synthesizeFlight(ctx, p, opts, &ecache, locals.Get(worker))
		}
		// Every signature of this component this call can ever own is
		// now resolved; later hits come from the flight table, not from
		// re-elaboration, so the component's cache retires here.
		if ecache.c != nil {
			s.addElabStats(ecache.c.Stats())
		}
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
func (s *Session) planUnit(ctx context.Context, u Unit, opts Options, ecache *groupCache) *plan {
	if err := ctx.Err(); err != nil {
		return &plan{err: fmt.Errorf("measure: plan %s: %w", u.Top, err)}
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
	p := &plan{top: u.Top}
	if u.UseAccounting {
		sr, searched, err := s.minimized(u.Top, opts, ecache)
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
	possible, err := s.dedupPossible(u.Top, nil)
	if err != nil {
		return &plan{err: err, hits: p.hits, misses: p.misses}
	}
	p.dedup = u.UseAccounting
	dedupKey := "dedup=any"
	if possible && p.dedup {
		dedupKey = "dedup=true"
	} else if possible {
		dedupKey = "dedup=false"
	}
	// The flight table and the disk use one key, so a sweep looks each
	// "sig" record up at most once.
	var parts [keyPartsMax + 3]string
	p.sigKey = cache.KindKey("sig", opts.appendKeyParts(append(parts[:0],
		pt, elab.ParamSignature("", full), dedupKey))...)

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
// It is shared by every plan that reads it and is never mutated. One
// decoded from a "search" record carries no counters: no search ran.
type searchResult struct {
	params       map[string]int64
	hits, misses int
}

// searchFlight is the single-flight accounting search of one
// structural hash: the first unit to ask owns it and runs the search
// or reads its "search" record, and every later unit waits on done and
// reads sr. A failed flight is evicted from the memo before done
// closes, so no failure is ever served from it.
type searchFlight struct {
	done chan struct{}
	sr   *searchResult
	err  error
}

// minimized returns top's accounting search result. The first call for
// a top of its StructuralHash owns the search (searched reports that);
// the others wait for it, so the session consults the disk at most
// once per structure and never reads, inside a cold batch, a record it
// wrote itself. The memo is sound for the reasons the dedup memo is:
// the session's design never changes, and the minimized parameters do
// not depend on the worker count or on what the elaboration cache
// already holds. Nor do they depend on a module name or a dead
// default: the search reads parameter names, which the structural hash
// keeps, starts from the top's defaults, which it keeps too, and two
// tops of one structural hash elaborate alike at every probe, since a
// probe reads no default the hash cuts. The same argument keys the
// disk record by the structural hash, so a renamed copy reads its
// original's search. A unit that waited on a failed search searches
// again, so each unit's search error names its own modules.
func (s *Session) minimized(top string, opts Options, ecache *groupCache) (sr *searchResult, searched bool, err error) {
	st, err := s.design.StructuralHash(top)
	if err != nil {
		return nil, false, err
	}
	for {
		v, ok := s.minMemo.Load(st)
		if !ok {
			f := &searchFlight{done: make(chan struct{})}
			if v, ok = s.minMemo.LoadOrStore(st, f); !ok {
				s.search(f, st, top, opts, ecache)
				return f.sr, true, f.err
			}
		}
		f := v.(*searchFlight)
		<-f.done
		if f.err == nil {
			return f.sr, false, nil
		}
	}
}

// searchKey is the disk key of the "search" record of the tops of
// structural hash st.
func searchKey(st string, opts Options) string {
	var parts [keyPartsMax + 1]string
	return cache.KindKey("search", opts.appendKeyParts(append(parts[:0], st))...)
}

// search resolves one owned search flight through the disk cache's
// "search" record: a hit answers it without elaborating; a miss runs
// the search against the group's elaboration cache and stores the
// minimized parameters. A failed search is neither stored on disk nor
// kept in the memo. done is always closed.
func (s *Session) search(f *searchFlight, st, top string, opts Options, ecache *groupCache) {
	defer close(f.done)
	var key string
	if opts.Cache != nil {
		key = searchKey(st, opts)
	}
	// A nil cache runs compute directly and never consults the key.
	f.sr, _, f.err = cache.Do(opts.Cache, key, searchCodec, func() (*searchResult, error) {
		params, memo, err := minimizeParams(s.design, top, ecache.get())
		if err != nil {
			return nil, err
		}
		return &searchResult{params: params, hits: memo.hits, misses: memo.misses}, nil
	}, compareSearches)
	if f.err != nil {
		s.minMemo.CompareAndDelete(st, f)
	}
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
// path holds the modules being visited above name.
func (s *Session) dedupPossible(name string, path []string) (bool, error) {
	pt, err := s.design.DesignPointHash(name)
	if err != nil {
		return false, err
	}
	if v, ok := s.dedupMemo.Load(pt); ok {
		return v.(bool), nil
	}
	if slices.Contains(path, name) {
		// Instantiation cycle: elaboration will reject the design; stay
		// conservative here and let that error surface downstream.
		return true, nil
	}
	mod, err := s.design.Module(name)
	if err != nil {
		return false, err
	}
	var stack [8]string
	children, v := scanDedupItems(mod.Items, false, stack[:0])
	if !v {
		path = append(path, name)
		for _, ch := range children {
			if !s.design.HasModule(ch) {
				continue
			}
			cv, err := s.dedupPossible(ch, path)
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
// instantiation inside a generate for loop. It appends the distinct
// instantiated module names to children, for the hierarchy recursion.
func scanDedupItems(items []hdl.Item, inLoop bool, children []string) ([]string, bool) {
	for _, it := range items {
		var dup bool
		switch v := it.(type) {
		case *hdl.Instance:
			if inLoop || slices.Contains(children, v.ModuleName) {
				return children, true
			}
			children = append(children, v.ModuleName)
		case *hdl.GenFor:
			children, dup = scanDedupItems(v.Body, true, children)
		case *hdl.GenIf:
			// Branches are exclusive at elaboration time; counting both
			// into one tally only over-approximates.
			if children, dup = scanDedupItems(v.Then, inLoop, children); !dup {
				children, dup = scanDedupItems(v.Else, inLoop, children)
			}
		}
		if dup {
			return children, true
		}
	}
	return children, false
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
// as abandoned, with the context error, and evicts its key from the
// shared table: a waiter that already holds the flight synthesizes the
// design point itself under its own context (see assembleUnit), and
// any later request for the signature registers a fresh flight — an
// abandoned flight never fails another call or poisons the session.
func (s *Session) synthesizeFlight(ctx context.Context, p *plan, opts Options, ecache *groupCache, ws *Workspace) {
	f := p.owned
	defer close(f.done)
	if err := ctx.Err(); err != nil {
		f.err = fmt.Errorf("measure: synthesis of %s abandoned: %w", p.top, err)
		f.abandoned = true
		s.flights.CompareAndDelete(p.sigKey, f)
		return
	}
	compute := func() (*sigRecord, error) {
		s.synthesized.Add(1)
		inst, report, err := elab.ElaborateOpts(s.design, p.top, p.overrides, elab.Options{Cache: ecache.get()})
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

// assembleUnit builds one unit's result in memory from its plan, the
// shared synthesis table, and the parse-time source counts of its
// modules. Waiting on a flight another goroutine owns is bounded by
// the context: a canceled waiter stops waiting and returns the context
// error (the flight itself, owned elsewhere, is unaffected). A waiter
// whose flight's owner abandoned it to the owner's own cancellation
// does not inherit that error: under a live context it synthesizes
// the design point itself.
func (s *Session) assembleUnit(ctx context.Context, u Unit, p *plan, opts Options) (*ComponentResult, error) {
	if p.err != nil {
		return nil, p.err
	}
	f := p.flight
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("measure: assemble %s: %w", u.Top, ctx.Err())
	}
	if f.err != nil && (f.top != u.Top || f.abandoned) {
		// The error names the owning unit's modules, or is the owner's
		// cancellation, not this unit's. This unit runs its own
		// synthesis, outside the table, so the error it returns names
		// its own modules and its own context; a structurally equal
		// design point fails alike, so past a cancellation this runs
		// only on the way to an error.
		own := *p
		own.owned = &sigFlight{done: make(chan struct{}), top: u.Top}
		ws := getWorkspace()
		s.synthesizeFlight(ctx, &own, opts, &groupCache{}, ws)
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
	src, err := srcmetrics.Sum(s.design, modules)
	if err != nil {
		return nil, err
	}
	m := *f.rec.Metrics // copy: the record is shared across units
	m.Stmts, m.LoC = src.Stmts, src.LoC
	res.Metrics = &m
	return res, nil
}
