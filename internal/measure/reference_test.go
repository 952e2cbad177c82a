package measure

import (
	"strings"

	"repro/internal/cones"
	"repro/internal/elab"
	"repro/internal/fpga"
	"repro/internal/hdl"
	"repro/internal/power"
	"repro/internal/stdcell"
	"repro/internal/synth"
	"repro/internal/timing"
)

// measureComponentRef is the reference the session is pinned against:
// one component measured alone, with no session, no flight table, no
// disk cache, and no workspaces — a fresh elaboration of the measured
// point (minimized against its own search cache in accounting mode),
// fresh lowering, and the cone, LUT, power, and timing kernels on
// fresh scratch (nil workspaces). The
// golden tests require every Session result to match it bit for bit.
func measureComponentRef(design *hdl.Design, top string, useAccounting bool, opts Options) (*ComponentResult, error) {
	modules, err := design.TransitiveModules(top)
	if err != nil {
		return nil, err
	}
	res := &ComponentResult{UniqueModules: modules}

	var inst *elab.Instance
	var report *elab.Report
	if useAccounting {
		params, memo, err := minimizeParams(design, top, nil)
		if err != nil {
			return nil, err
		}
		res.MinimizedParams = params
		inst, report, err = elab.ElaborateOpts(design, top, params, elab.Options{Cache: memo.sess})
		if err != nil {
			return nil, err
		}
		res.ElabCacheHits, res.ElabCacheMisses = memo.hits, memo.misses
	} else {
		inst, report, err = elab.ElaborateOpts(design, top, nil, elab.Options{})
		if err != nil {
			return nil, err
		}
	}
	res.InstanceCount = inst.CountInstances()

	synres, err := synth.SynthesizeInstance(inst, report, synth.LowerOptions{DedupInstances: useAccounting})
	if err != nil {
		return nil, err
	}
	res.DedupedInstances = synres.Deduped

	lib := stdcell.Default180nm()
	nl := synres.Optimized
	res.NetlistHash = nl.Hash()
	res.Timing = timing.Summarize(nl, lib, nil)
	stats := nl.Stats()
	mapping := fpga.MapWS(nl, fpga.Options{}, nil)
	pw := power.AnalyzeWS(nl, lib, mapping.FreqMHz, nil)
	areaL, areaS := lib.Areas(nl)
	m := &Metrics{
		FanInLC:      mapping.LUTInputSum,
		FanInLCExact: cones.AnalyzeSummary(nl, nil).FanInLC,
		Nets:         stats.Nets,
		Cells:        stats.Cells,
		FFs:          stats.FFs,
		FreqMHz:      mapping.FreqMHz,
		AreaL:        areaL,
		AreaS:        areaS,
		PowerD:       pw.DynamicMW,
		PowerS:       pw.StaticUW,
	}
	// Software metrics: each unique module's source once.
	for _, name := range modules {
		mod, err := design.Module(name)
		if err != nil {
			return nil, err
		}
		loc, stmts := refSourceCounts(mod)
		m.Stmts += stmts
		m.LoC += loc
	}
	res.Metrics = m
	return res, nil
}

// refSourceCounts measures one module's software metrics from scratch:
// the non-blank lines of a fresh Format of the module and its statement
// count, the definitions the parse-time counts the session sums must
// equal.
func refSourceCounts(mod *hdl.Module) (loc, stmts int) {
	for _, line := range strings.Split(hdl.Format(mod), "\n") {
		if strings.TrimSpace(line) != "" {
			loc++
		}
	}
	return loc, hdl.CountStmts(mod)
}
