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
// is sound for the same reason the structurally keyed disk cache is:
// every measurement of a top module is a pure function of its
// subtree's formatted sources and the options, so an unchanged subtree
// measures bit-identically (the session golden tests pin this against
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
	// reused instead of recomputed (the early cutoff). A unit a disk
	// "sig" record answered ran no flight and is not one: an edit that
	// leaves its keys as they were, such as an unused scalar wire,
	// reads its records instead.
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
		// A verifying cache uses no netlist memo, so it gets no cutoff;
		// neither does a baseline measured under other options.
		var cutoffs *atomic.Int64
		if sameOpts && memoOn(opts) {
			s.seedMemo(prev, dirtyUnits)
			cutoffs = new(atomic.Int64)
		}
		fresh, err := s.measureAll(ctx, dirtyUnits, opts, cutoffs)
		if err != nil {
			return nil, nil, stats, err
		}
		for j, i := range dirtyIdx {
			results[i] = fresh[j]
		}
		if cutoffs != nil {
			stats.CutoffUnits = int(cutoffs.Load())
		}
	}

	next, err := s.Baseline(units, results, opts)
	if err != nil {
		return nil, nil, stats, err
	}
	return results, next, stats, nil
}

// seedMemo is the early cutoff (ninja's restat): it enters the
// baseline's synthesis-only metrics and timing summaries of the dirty
// units into the session's netlist memo, keyed by optimized netlist
// hash. A dirty unit still elaborates, lowers and optimizes; when its
// netlist hashes as one of these, its flight takes the baseline's
// record instead of running the metric kernels, and counts as cut off.
// A unit's synthesis-only metrics are its result's with the source
// sums zeroed — exactly what synthMetrics leaves before assembly adds
// Stmts and LoC. A baseline entry replaces a computed one of the same
// hash; their values are equal.
func (s *Session) seedMemo(prev *Baseline, dirty []Unit) {
	for _, u := range dirty {
		res, ok := prev.Result(u)
		if !ok {
			continue
		}
		m := *res.Metrics
		m.Stmts, m.LoC = 0, 0
		s.netMemo.Store(res.NetlistHash, memoEntry{rec: &sigRecord{Metrics: &m, Timing: res.Timing}, baseline: true})
	}
}

// recountModules fills the module partition for the no-baseline case:
// with nothing to diff against, every module of the design is dirty.
func recountModules(d *hdl.Design, stats *RemeasureStats) {
	stats.AddedModules = d.ModuleNames()
	stats.DirtyModules = len(stats.AddedModules)
}
