package measure

// The µComplexity accounting procedure of Section 2.2 of the paper:
//
//  1. Account for a single instance of each component — when a design
//     reuses a module, only one instance contributes to the metrics,
//     because designing and verifying a reusable component is a
//     one-time cost.
//  2. Minimize the value of component parameters (the scaling rule) —
//     each parameter is set to the smallest value that does not cause
//     any loops or conditional statements in the RTL to be optimized
//     away, because parameterized code is not much harder to write
//     than its smallest nontrivial instance.
//
// A Unit (or MeasureComponent) runs with the procedure enabled (the
// paper's recommended mode) or disabled (every instance, full
// parameters), which is exactly the comparison Figure 6 of the paper
// draws. Rule 1 is the single-instance rule of internal/synth's
// lowering; rule 2 is the search in this file.
//
// The search memoizes at two levels, both keyed by the structural
// signature of the single-instance rule (module + resolved
// parameters). Point verdicts: a candidate that names a design point
// already probed — which the fixpoint iteration does constantly —
// reuses the stored verdict instead of re-elaborating. Subtrees:
// probes run in elab's report-only mode against the component's
// elaboration cache, so a probe skips every submodule subtree whose
// resolved parameter binding was already elaborated and walks only
// what the candidate's changed parameter actually reaches; full
// instance trees are built once, for the point the search ends on,
// reusing the reference elaboration's unchanged subtrees. One search
// runs on one goroutine, probing candidates lowest-first; batches get
// their parallelism across components, not inside a search.

import (
	"fmt"
	"sort"

	"repro/internal/elab"
	"repro/internal/hdl"
)

// elabMemo caches the point verdicts of one (design, module) pair
// across the minimization search. Keys are elab.ParamSignature
// strings, so two candidate maps that resolve to the same design point
// share one entry. No per-point instance trees are retained: probes
// run in report-only mode against a session-scoped subtree cache
// (sess), which also lets the final measurement's full elaboration
// reuse every subtree the winning parameters left unchanged from the
// reference. A memo belongs to one search and is never shared between
// goroutines.
type elabMemo struct {
	design *hdl.Design
	module string
	ref    *elab.Report
	sess   *elab.Cache

	verdict map[string]bool
	hits    int
	misses  int
}

// compatible reports whether the candidate parameter point elaborates
// to a structure compatible with the reference elaboration, memoized.
// Elaboration failures count as incompatible, as in the paper's rule
// (the smallest value must still elaborate). Probes are report-only:
// only the construct Report is computed, and subtrees whose resolved
// parameter bindings were already elaborated this session are skipped
// entirely, so a probe costs proportional to what the candidate's
// changed parameter actually reaches.
func (m *elabMemo) compatible(cand map[string]int64) bool {
	sig := elab.ParamSignature(m.module, cand)
	if v, ok := m.verdict[sig]; ok {
		m.hits++
		return v
	}
	m.misses++

	_, rep, err := elab.ElaborateOpts(m.design, m.module, cand, elab.Options{
		Cache:      m.sess,
		ReportOnly: true,
	})
	ok := false
	if err == nil {
		ok, _ = m.ref.CompatibleWith(rep)
	}
	m.verdict[sig] = ok
	return ok
}

// MinimizeParamsN returns, for each header parameter of the module,
// the smallest value compatible with the module's reference
// elaboration (its declared defaults): no generate loop that ran
// collapses to zero iterations, no constant conditional flips its
// branch, no memory degenerates, and elaboration still succeeds.
//
// The search lowers one parameter at a time, holding the others at
// their current values, and repeats until a fixpoint (parameters may
// interact through derived expressions), trying candidates
// lowest-first on the calling goroutine.
//
// concurrency is ignored: the search is sequential. The argument stays
// only so existing callers keep compiling.
func MinimizeParamsN(design *hdl.Design, module string, concurrency int) (map[string]int64, error) {
	params, _, err := minimizeParams(design, module, nil)
	return params, err
}

// minimizeParams runs the search. When sess is nil a fresh session
// elaboration cache is created for this search alone; a Session passes
// its component group's cache so the group's units and its final
// elaborations reuse every subtree the search already elaborated. The
// minimized parameters are bit-identical either way: cached report
// fragments and trees are themselves bit-identical to uncached
// elaboration (the internal/elab invariant), so every compatibility
// verdict — and therefore the search's landing point — is unchanged.
func minimizeParams(design *hdl.Design, module string, sess *elab.Cache) (map[string]int64, *elabMemo, error) {
	mod, err := design.Module(module)
	if err != nil {
		return nil, nil, err
	}
	// The session cache memoizes every subtree elaborated during this
	// search, keyed by resolved parameter binding. The reference
	// elaboration populates it, report-only probes draw on it, and the
	// final full elaboration of the winning point reuses each subtree
	// the minimized parameters did not touch.
	if sess == nil {
		sess = elab.NewCache()
	}
	_, refReport, err := elab.ElaborateOpts(design, module, nil, elab.Options{Cache: sess})
	if err != nil {
		return nil, nil, fmt.Errorf("accounting: reference elaboration of %s: %w", module, err)
	}
	// Start from the declared defaults.
	current, err := elab.ResolveParams(mod, nil)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(current))
	for n := range current {
		names = append(names, n)
	}
	sort.Strings(names)

	memo := &elabMemo{
		design:  design,
		module:  module,
		ref:     refReport,
		sess:    sess,
		verdict: map[string]bool{},
	}
	// Seed with the reference point: the defaults are compatible with
	// themselves, and if nothing minimizes, the final measurement's
	// elaboration is answered whole from the session cache.
	memo.verdict[elab.ParamSignature(module, current)] = true

	for round := 0; round < 5; round++ {
		changed := false
		for _, name := range names {
			// Lowest-first: the first compatible candidate is the
			// smallest one.
			for _, v := range candidateValues(current[name]) {
				cand := make(map[string]int64, len(current))
				for k, cv := range current {
					cand[k] = cv
				}
				cand[name] = v
				if memo.compatible(cand) {
					current[name] = v
					changed = true
					break
				}
			}
		}
		if !changed {
			break
		}
	}
	return current, memo, nil
}

// candidateValues returns the ascending candidate values strictly
// below a parameter's current value cur: small integers exhaustively,
// then powers of two. The slice is sized up front, as the search asks
// for one per parameter per round.
func candidateValues(cur int64) []int64 {
	small := max(min(cur, 65), 0) // 0..64
	n := small
	for v := int64(128); v > 0 && v < cur; v *= 2 {
		n++
	}
	out := make([]int64, 0, n)
	for v := int64(0); v < small; v++ {
		out = append(out, v)
	}
	for v := int64(128); v > 0 && v < cur; v *= 2 {
		out = append(out, v)
	}
	return out
}
