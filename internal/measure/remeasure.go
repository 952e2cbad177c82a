package measure

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/depgraph"
	"repro/internal/hdl"
)

// Incremental remeasurement: a Baseline snapshots one measured batch —
// the dependency graph of the design it was measured on plus the
// results — and Session.Remeasure diffs an edited design against it,
// re-measuring only the units whose top's subtree hash changed. The
// other units are served from the baseline's results unchanged, which
// is sound for the same reason the subtree-keyed disk cache is: every
// measurement of a top module is a pure function of its subtree's
// formatted sources and the options, so an unchanged subtree measures
// bit-identically (the session golden tests pin this against
// from-scratch MeasureAll).

// Baseline is the remeasurement anchor of one measured batch: the
// dependency graph recorded over the design the batch ran on, the unit
// list, and the results in unit order.
type Baseline struct {
	Graph   *depgraph.Graph
	Units   []Unit
	Results []*ComponentResult

	byUnit map[Unit]*ComponentResult
}

// Result returns the baseline's result for one unit.
func (b *Baseline) Result(u Unit) (*ComponentResult, bool) {
	r, ok := b.byUnit[u]
	return r, ok
}

// optionsKey renders the result-determining options as the dependency
// graph's options identity: a baseline recorded under different
// options must not serve a remeasurement (subtree hashes only track
// source changes).
func optionsKey(opts Options) string {
	return strings.Join(opts.CacheKeyParts(), "|")
}

// Baseline records the dependency graph of a measured batch — every
// module's own and subtree hash — next to the batch's results. results
// must be MeasureAll's output for units under opts on this session's
// design. The graph lives in memory only: the rolling baseline of a
// watch loop or a daemon tenant is its one reader.
func (s *Session) Baseline(units []Unit, results []*ComponentResult, opts Options) (*Baseline, error) {
	if len(units) != len(results) {
		return nil, fmt.Errorf("measure: baseline of %d units with %d results", len(units), len(results))
	}
	g, err := depgraph.Build(s.design, optionsKey(opts))
	if err != nil {
		return nil, err
	}
	b := &Baseline{
		Graph:   g,
		Units:   units,
		Results: results,
		byUnit:  make(map[Unit]*ComponentResult, len(units)),
	}
	for i, u := range units {
		if results[i] == nil {
			return nil, fmt.Errorf("measure: baseline unit %s has a nil result", u.Top)
		}
		b.byUnit[u] = results[i]
	}
	return b, nil
}

// RemeasureStats describes what one Remeasure call had to redo.
type RemeasureStats struct {
	// ChangedModules, AddedModules, and RemovedModules are the
	// module-level edits the diff found (sorted name lists from
	// depgraph.Delta).
	ChangedModules, AddedModules, RemovedModules []string
	// DirtyModules and CleanModules partition the new design's module
	// set: a module is dirty when it is new or its subtree hash changed.
	DirtyModules, CleanModules int
	// DirtyUnits counts the units re-measured; CleanUnits counts the
	// units served from the baseline's results.
	DirtyUnits, CleanUnits int
	// CutoffUnits counts the dirty units whose optimized netlist hashed
	// as a baseline unit's, so their synthesis metrics and timing were
	// reused instead of recomputed (the early cutoff).
	CutoffUnits int
}

// Remeasure measures the batch against this session's design,
// re-measuring only the units whose subtree the baseline's dependency
// graph marks dirty; clean units are answered from the baseline's
// results (bit-identical by the subtree purity argument — the golden
// tests compare against a from-scratch MeasureAll). A unit the
// baseline never measured, or a baseline recorded under different
// options, is dirty by definition. It returns the results in unit
// order plus the successor baseline anchored on this session's design.
func (s *Session) Remeasure(prev *Baseline, units []Unit, opts Options) ([]*ComponentResult, *Baseline, RemeasureStats, error) {
	return s.RemeasureCtx(context.Background(), prev, units, opts)
}

// RemeasureCtx is Remeasure under a context: the dirty-unit measurement
// runs through MeasureAllCtx with its unit-granular cancellation
// contract. The diff itself and the successor-baseline recording are
// cheap and run to completion once measurement has succeeded.
func (s *Session) RemeasureCtx(ctx context.Context, prev *Baseline, units []Unit, opts Options) ([]*ComponentResult, *Baseline, RemeasureStats, error) {
	var stats RemeasureStats
	results := make([]*ComponentResult, len(units))
	var dirtyUnits []Unit
	var dirtyIdx []int

	sameOpts := prev != nil && prev.Graph != nil && prev.Graph.OptionsKey == optionsKey(opts)

	// The watch loop's most common wakeup is a save that changed
	// nothing: a design whose whole-tree fingerprint matches the
	// baseline's is module-for-module identical, so an identical batch
	// needs no diff, no measurement, and no new graph — the baseline
	// carries over as its own successor.
	if sameOpts && prev.Graph.Fingerprint == s.design.Fingerprint() && slices.Equal(units, prev.Units) {
		copy(results, prev.Results)
		stats.CleanUnits = len(units)
		stats.CleanModules = len(prev.Graph.Modules)
		return results, prev, stats, nil
	}

	var delta *depgraph.Delta
	if sameOpts {
		d, err := depgraph.Diff(prev.Graph, s.design)
		if err != nil {
			return nil, nil, stats, err
		}
		delta = d
		stats.ChangedModules = d.Changed
		stats.AddedModules = d.Added
		stats.RemovedModules = d.Removed
		stats.DirtyModules, stats.CleanModules = d.DirtyModules, d.CleanModules
	} else {
		recountModules(s.design, &stats)
	}

	for i, u := range units {
		if sameOpts && !delta.Dirty(u.Top) {
			if res, ok := prev.Result(u); ok {
				results[i] = res
				stats.CleanUnits++
				continue
			}
		}
		dirtyUnits = append(dirtyUnits, u)
		dirtyIdx = append(dirtyIdx, i)
	}
	stats.DirtyUnits = len(dirtyUnits)

	if len(dirtyUnits) > 0 {
		// A verifying cache recomputes everything it checks, so it gets
		// no cutoff; neither does a baseline measured under other
		// options.
		var cut *cutoff
		if sameOpts && (opts.Cache == nil || !opts.Cache.Verifying()) {
			cut = newCutoff(prev, dirtyUnits)
		}
		fresh, err := s.measureAll(ctx, dirtyUnits, opts, cut)
		if err != nil {
			return nil, nil, stats, err
		}
		for j, i := range dirtyIdx {
			results[i] = fresh[j]
		}
		if cut != nil {
			stats.CutoffUnits = int(cut.units.Load())
		}
	}

	next, err := s.Baseline(units, results, opts)
	if err != nil {
		return nil, nil, stats, err
	}
	return results, next, stats, nil
}

// cutoff is one remeasurement's early-cutoff table (ninja's restat):
// the baseline's synthesis-only metrics and timing summaries of the
// dirty units, keyed by optimized netlist hash. A dirty unit still
// elaborates, lowers and optimizes; when its netlist hashes as one of
// these, its flight reuses the record instead of running the metric
// kernels (Session.synthesizeFlight). The table is read-only once
// built; units counts the dirty units whose flight was cut off.
type cutoff struct {
	byHash map[string]*sigRecord
	units  atomic.Int64
}

// newCutoff builds the table from prev's results for the dirty units.
// A unit's synthesis-only metrics are its result's with the source
// sums zeroed — exactly what synthMetrics leaves before assembly adds
// Stmts and LoC.
func newCutoff(prev *Baseline, dirty []Unit) *cutoff {
	c := &cutoff{byHash: make(map[string]*sigRecord, len(dirty))}
	for _, u := range dirty {
		res, ok := prev.Result(u)
		if !ok {
			continue
		}
		m := *res.Metrics
		m.Stmts, m.LoC = 0, 0
		c.byHash[res.NetlistHash] = &sigRecord{Metrics: &m, Timing: res.Timing}
	}
	return c
}

// lookup returns the baseline record for an optimized netlist hash
// (nil on a nil table or no match).
func (c *cutoff) lookup(hash string) *sigRecord {
	if c == nil {
		return nil
	}
	return c.byHash[hash]
}

// recountModules fills the module partition for the no-baseline case:
// with nothing to diff against, every module of the design is dirty.
func recountModules(d *hdl.Design, stats *RemeasureStats) {
	stats.AddedModules = d.ModuleNames()
	stats.DirtyModules = len(stats.AddedModules)
}
