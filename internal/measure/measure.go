// Package measure runs the full µComplexity measurement pipeline on
// components — a top module plus everything it instantiates, with or
// without the accounting procedure (minimize.go): elaborate →
// synthesize → optimize, then extract every Table 3 metric (software
// metrics from the source, ASIC metrics from the optimized netlist and
// cell library, FPGA metrics from the LUT mapping). A Session measures
// batches; MeasureComponent is a one-unit batch.
package measure

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cones"
	"repro/internal/dataset"
	"repro/internal/elab"
	"repro/internal/fpga"
	"repro/internal/power"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

// Metrics is the full Table 3 metric vector for one measured unit,
// plus the exact-cone FanInLC that the paper's LUT approximation
// stands in for.
type Metrics struct {
	Stmts int
	LoC   int
	// FanInLC is the LUT-input-sum approximation (what the paper
	// reports); FanInLCExact is the true logic-cone fan-in total.
	FanInLC      int
	FanInLCExact int
	Nets         int
	Cells        int
	FFs          int
	FreqMHz      float64
	AreaL        float64 // µm²
	AreaS        float64 // µm²
	PowerD       float64 // mW
	PowerS       float64 // µW
}

// Value returns the metric by its Table 3 name.
func (m *Metrics) Value(metric dataset.Metric) (float64, error) {
	switch metric {
	case dataset.Stmts:
		return float64(m.Stmts), nil
	case dataset.LoC:
		return float64(m.LoC), nil
	case dataset.FanInLC:
		return float64(m.FanInLC), nil
	case dataset.Nets:
		return float64(m.Nets), nil
	case dataset.Cells:
		return float64(m.Cells), nil
	case dataset.FFs:
		return float64(m.FFs), nil
	case dataset.Freq:
		return m.FreqMHz, nil
	case dataset.AreaL:
		return m.AreaL, nil
	case dataset.AreaS:
		return m.AreaS, nil
	case dataset.PowerD:
		return m.PowerD, nil
	case dataset.PowerS:
		return m.PowerS, nil
	}
	return 0, fmt.Errorf("measure: unknown metric %q", metric)
}

// MetricMap returns all metrics as a dataset-compatible map.
func (m *Metrics) MetricMap() map[dataset.Metric]float64 {
	out := make(map[dataset.Metric]float64, len(dataset.AllMetrics))
	for _, metric := range dataset.AllMetrics {
		v, err := m.Value(metric)
		if err != nil {
			panic(err) // unreachable: AllMetrics is closed
		}
		out[metric] = v
	}
	return out
}

// Options configures a measurement run. The measurement target is
// fixed: ASIC metrics come from stdcell.Default180nm() and FPGA
// metrics from fpga.MapWS with its default 8-input LUTs (§4.3).
type Options struct {
	// Concurrency bounds the worker pool over a batch's component
	// groups (each group, accounting search included, runs on one
	// worker): 0 means GOMAXPROCS, 1 forces the exact sequential path.
	// Measured metrics are identical for every value.
	Concurrency int
	// Cache, when non-nil, stores each accounting search (keyed by its
	// top's structural hash) and each synthesized design point (keyed
	// by its design-point hash, resolved parameters and dedup flag) on
	// disk, with the measurement options, so repeated runs skip
	// elaboration and synthesis entirely. Concurrency is deliberately excluded from the key:
	// results are identical for every worker count.
	Cache *cache.Cache
	// ElabStats, when non-nil, accumulates the session elaboration
	// cache counters of every accounting search this measurement runs
	// (subtree hits/misses/instances reused, point-probe memo
	// hits/misses). Purely observational: excluded from CacheKeyParts
	// and never affects a measured value.
	ElabStats *elab.StatsRecorder
	// Namespace, when non-empty, partitions every cache key this
	// measurement derives — search and signature records alike —
	// into its own namespace: it is mixed
	// into CacheKeyParts, so two namespaces sharing one cache directory
	// never read each other's entries (the daemon's per-tenant
	// isolation). Results are namespace-independent — measurement is a
	// pure function of the design and the other options — and the
	// empty namespace leaves every key exactly as before.
	Namespace string
}

// CacheKeyParts renders the result-determining options as stable key
// components for internal/cache: the fixed measurement target, then a
// non-empty Namespace. Concurrency and the cache handle itself are
// excluded (neither changes any measured value). The namespace does
// not change any measured value either, but it must partition the key
// space; the empty namespace appends nothing, keeping every
// pre-namespace key bit-identical.
func (o Options) CacheKeyParts() []string {
	return o.appendKeyParts(nil)
}

// keyPartsMax is the most parts appendKeyParts appends.
const keyPartsMax = 3

// targetLib and targetFPGA name the fixed measurement target in the
// spelling of the library and FPGA options it replaced (K and five
// timing values, zero meaning the default), so entries written under
// those options stay warm.
var (
	targetLib  = "lib=" + stdcell.Default180nm().Name
	targetFPGA = "fpga=K0;0;0;0;0;0"
)

// appendKeyParts appends CacheKeyParts to dst. A caller that passes a
// stack array's slice with room for keyPartsMax more builds a key
// without allocating for its parts.
func (o Options) appendKeyParts(dst []string) []string {
	dst = append(dst, targetLib, targetFPGA)
	if o.Namespace != "" {
		dst = append(dst, "ns="+o.Namespace)
	}
	return dst
}

// synthMetrics extracts the synthesis-derived metrics of a
// synthesized result through one worker's workspace: the cone, LUT,
// and power kernels reuse its scratch, and their results are pinned
// bit-identical to fresh scratch by their package tests and the
// session golden tests. The software metrics (Stmts, LoC) are left
// zero; the session adds them per unit at assembly.
func synthMetrics(res *synth.Result, ws *Workspace) *Metrics {
	lib := stdcell.Default180nm()
	nl := res.Optimized
	stats := nl.Stats()
	fanInExact := cones.AnalyzeSummary(nl, &ws.cones).FanInLC
	mapping := fpga.MapWS(nl, fpga.Options{}, &ws.fpga)
	pw := power.AnalyzeWS(nl, lib, mapping.FreqMHz, &ws.power)
	areaL, areaS := lib.Areas(nl)
	return &Metrics{
		FanInLC:      mapping.LUTInputSum,
		FanInLCExact: fanInExact,
		Nets:         stats.Nets,
		Cells:        stats.Cells,
		FFs:          stats.FFs,
		FreqMHz:      mapping.FreqMHz,
		AreaL:        areaL,
		AreaS:        areaS,
		PowerD:       pw.DynamicMW,
		PowerS:       pw.StaticUW,
	}
}
