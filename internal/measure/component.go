package measure

import (
	"context"

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
	// same counters; a result whose search the disk cache answered,
	// which ran no search, reports zero. Options.ElabStats counts only the
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
