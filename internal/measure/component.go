package measure

import (
	"context"
	"fmt"
	"maps"

	"repro/internal/cache"
	"repro/internal/hdl"
	"repro/internal/synth"
	"repro/internal/timing"
)

// ComponentResult carries a component measurement along with the
// accounting details that produced it.
type ComponentResult struct {
	Metrics *Metrics
	// UniqueModules lists the distinct modules in the component's
	// hierarchy (sorted).
	UniqueModules []string
	// MinimizedParams holds the scaled top-level parameter values
	// (accounting mode only; nil otherwise).
	MinimizedParams map[string]int64
	// InstanceCount is the elaborated instance count of the component
	// at the parameters actually measured.
	InstanceCount int
	// DedupedInstances is how many duplicate instances the
	// single-instance rule removed (accounting mode only).
	DedupedInstances int
	// NetlistHash is the structural hash (netlist.Netlist.Hash) of the
	// optimized netlist measured at that parameter point.
	NetlistHash string
	// Timing is the static-timing summary of that netlist (the §2.5/§7
	// timing-aware extension reads it).
	Timing timing.Summary
	// Synth is kept only for source compatibility.
	//
	// Deprecated: always nil; read NetlistHash.
	Synth *synth.Result
	// ElabCacheHits and ElabCacheMisses count memoized versus fresh
	// point verdicts during the parameter-minimization search
	// (accounting mode only). A Session searches each top module once
	// and every later result it plans from that search reports the
	// same counters; a result answered from the disk cache, which ran
	// no search, reports zero. Options.ElabStats counts only the
	// probes a call actually ran; subtree-level counters are per
	// batch, in Options.ElabStats and Session.ElabStats.
	ElabCacheHits, ElabCacheMisses int
}

// MeasureComponent measures one component (a module plus everything it
// instantiates): a one-unit Session batch on a fresh session.
//
// With useAccounting (Section 2.2 of the paper), the component is
// measured at its minimized parameterization and every repeated
// (module, parameters) subtree is synthesized once — duplicate
// instances reuse the representative's logic structurally during
// lowering. Without it, the component is measured as instantiated:
// full default parameters, every instance counted.
//
// The software metrics (LoC, Stmts) sum each unique module's source
// once in both modes — the paper notes in Section 5.3 that the
// accounting procedure does not affect them.
//
// To measure a whole component set, use NewSession and
// Session.MeasureAll, which share the elaboration cache and
// deduplicate synthesis across components.
func MeasureComponent(design *hdl.Design, top string, useAccounting bool, opts Options) (*ComponentResult, error) {
	res, err := NewSession(design).measureAll(context.Background(),
		[]Unit{{Top: top, UseAccounting: useAccounting}}, opts, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// componentKey derives the on-disk cache key of one component
// measurement. The key hashes the component's transitive subtree
// sources (hdl.Design.SubtreeHash), not the whole design's
// fingerprint, so an edit elsewhere in the design — or measuring the
// same component from a differently-composed design — leaves the
// entry warm. The dedup= part sits between the FPGA part and the
// namespace, where earlier key layouts placed it, so a record whose
// version changed is rewritten under its old key, not beside it.
func componentKey(design *hdl.Design, top string, useAccounting bool, opts Options) (string, error) {
	st, err := design.SubtreeHash(top)
	if err != nil {
		return "", err
	}
	return cache.KindKey("component", append([]string{
		st, top, fmt.Sprintf("acct=%t", useAccounting),
	}, opts.keyParts(fmt.Sprintf("dedup=%t", useAccounting))...)...), nil
}

// componentRecord is the cacheable projection of a ComponentResult:
// everything downstream consumers read (metrics, accounting details,
// the netlist hash, and the timing summary), without this run's search
// counters.
type componentRecord struct {
	Metrics          *Metrics
	UniqueModules    []string
	MinimizedParams  map[string]int64
	InstanceCount    int
	DedupedInstances int
	NetlistHash      string
	Timing           timing.Summary
}

func recordOf(res *ComponentResult) *componentRecord {
	return &componentRecord{
		Metrics:          res.Metrics,
		UniqueModules:    res.UniqueModules,
		MinimizedParams:  res.MinimizedParams,
		InstanceCount:    res.InstanceCount,
		DedupedInstances: res.DedupedInstances,
		NetlistHash:      res.NetlistHash,
		Timing:           res.Timing,
	}
}

func (r *componentRecord) toResult() *ComponentResult {
	return &ComponentResult{
		Metrics:          r.Metrics,
		UniqueModules:    r.UniqueModules,
		MinimizedParams:  r.MinimizedParams,
		InstanceCount:    r.InstanceCount,
		DedupedInstances: r.DedupedInstances,
		NetlistHash:      r.NetlistHash,
		Timing:           r.Timing,
	}
}

// compareRecords is the cache's verify-mode comparator: every
// paper-facing value must match bit-for-bit.
func compareRecords(cached, fresh *componentRecord) string {
	switch {
	case *cached.Metrics != *fresh.Metrics:
		return fmt.Sprintf("metrics differ: cached %+v, fresh %+v", *cached.Metrics, *fresh.Metrics)
	case !maps.Equal(cached.MinimizedParams, fresh.MinimizedParams):
		return fmt.Sprintf("minimized parameters differ: cached %v, fresh %v", cached.MinimizedParams, fresh.MinimizedParams)
	case cached.InstanceCount != fresh.InstanceCount:
		return fmt.Sprintf("instance count differs: cached %d, fresh %d", cached.InstanceCount, fresh.InstanceCount)
	case cached.DedupedInstances != fresh.DedupedInstances:
		return fmt.Sprintf("deduped instances differ: cached %d, fresh %d", cached.DedupedInstances, fresh.DedupedInstances)
	case cached.NetlistHash != fresh.NetlistHash:
		return fmt.Sprintf("optimized netlist hash differs: cached %s, fresh %s", cached.NetlistHash, fresh.NetlistHash)
	case cached.Timing != fresh.Timing:
		return fmt.Sprintf("timing summary differs: cached %+v, fresh %+v", cached.Timing, fresh.Timing)
	}
	return ""
}
