// Package repro's root micro-benchmarks time the paper's fitted
// exhibits and the pipeline's stages one at a time, for profiling while
// working. Run with:
//
//	go test -run '^$' -bench=. -benchmem
//
// The benchmarks report paper-relevant quantities as custom metrics
// (sigma_eps, correlation, inflation) so a bench run doubles as a
// reproduction report. They gate nothing: the end-to-end benchmark is
// the bench/ module (bash bench/run.sh), and the load-independent
// bounds (allocations, work counts) are the tests in gates_test.go.
package repro

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/netlist"
	"repro/internal/nlme"
	"repro/internal/paper"
	"repro/internal/serve"
	"repro/internal/serve/servetest"
	"repro/internal/synth"
)

// ---------------------------------------------------------------
// Paper exhibits
// ---------------------------------------------------------------

// BenchmarkTable4 refits all 12 estimators (both model variants) on
// the paper dataset — the headline reproduction.
func BenchmarkTable4(b *testing.B) {
	b.ReportAllocs()
	var last *paper.Table4Result
	for i := 0; i < b.N; i++ {
		res, err := paper.Table4N(0)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.MaxAbsDiff, "max_sigma_dev_vs_paper")
	for _, r := range last.Rows {
		if r.Name == "DEE1" {
			b.ReportMetric(r.SigmaEps, "dee1_sigma_eps")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	b.ReportAllocs()
	var pos float64
	for i := 0; i < b.N; i++ {
		res, err := paper.Figure4N(0)
		if err != nil {
			b.Fatal(err)
		}
		pos = res.Positions["DEE1"]
	}
	b.ReportMetric(pos, "dee1_sigma_eps")
}

func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	var corr float64
	for i := 0; i < b.N; i++ {
		res, err := paper.Figure5N(0)
		if err != nil {
			b.Fatal(err)
		}
		corr = res.Correlation
	}
	b.ReportMetric(corr, "dee1_vs_effort_correlation")
}

// BenchmarkFigure6 runs the full accounting experiment: all 18
// synthetic components measured through synthesis twice (accounting
// on/off) and all estimators refitted on both corpora.
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	var res *paper.Figure6Result
	for i := 0; i < b.N; i++ {
		r, err := paper.Figure6Opts(paper.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Without["FanInLC"]/res.With["FanInLC"], "faninlc_sigma_inflation")
	b.ReportMetric(res.Without["Nets"]/res.With["Nets"], "nets_sigma_inflation")
	b.ReportMetric(res.Without["Stmts"]-res.With["Stmts"], "stmts_sigma_change(0=expected)")
}

func BenchmarkAICBIC(b *testing.B) {
	b.ReportAllocs()
	var res *paper.AICBICResult
	for i := 0; i < b.N; i++ {
		r, err := paper.AICBICN(0)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.DEE1AIC, "dee1_aic(paper:34.8)")
	b.ReportMetric(res.DEE1BIC, "dee1_bic(paper:38.4)")
}

// ---------------------------------------------------------------
// Parallel engine (speedup vs the sequential baselines)
// ---------------------------------------------------------------

// BenchmarkTable4Sequential pins the single-core baseline of the
// headline reproduction: every pool in the fit pipeline forced to the
// exact sequential path.
func BenchmarkTable4Sequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := paper.Table4N(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Parallel runs the headline reproduction on the
// GOMAXPROCS-bounded pools and reports the wall-clock speedup over a
// sequential run as a custom metric. The results themselves are
// bit-identical to the sequential path (see TestTable4ParallelDeterminism).
func BenchmarkTable4Parallel(b *testing.B) {
	b.ReportAllocs()
	seqStart := time.Now()
	if _, err := paper.Table4N(1); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(seqStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.Table4N(0); err != nil {
			b.Fatal(err)
		}
	}
	if par := b.Elapsed() / time.Duration(b.N); par > 0 {
		b.ReportMetric(float64(seq)/float64(par), "speedup_vs_sequential")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkFitDEE1Parallel benchmarks one mixed-effects DEE1 fit with
// the multi-start restarts spread across cores, reporting the speedup
// over the sequential restart loop.
func BenchmarkFitDEE1Parallel(b *testing.B) {
	b.ReportAllocs()
	d := paperNLMEData(b, dataset.Stmts, dataset.FanInLC)
	seqStart := time.Now()
	if _, err := nlme.Fit(d, nlme.FitOptions{Concurrency: 1}); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(seqStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nlme.Fit(d, nlme.FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	if par := b.Elapsed() / time.Duration(b.N); par > 0 {
		b.ReportMetric(float64(seq)/float64(par), "speedup_vs_sequential")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// BenchmarkMeasureCorpusParallel measures the synthetic corpus (the
// Figure 6 hot path) on the bounded component pool, reporting the
// speedup over a strictly sequential measurement.
func BenchmarkMeasureCorpusParallel(b *testing.B) {
	b.ReportAllocs()
	seqStart := time.Now()
	measureCorpus(b, true, measure.Options{Concurrency: 1})
	seq := time.Since(seqStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measureCorpus(b, true, measure.Options{Concurrency: 0})
	}
	if par := b.Elapsed() / time.Duration(b.N); par > 0 {
		b.ReportMetric(float64(seq)/float64(par), "speedup_vs_sequential")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

// ---------------------------------------------------------------
// Persistent synthesis cache (warm-path variants)
// ---------------------------------------------------------------

// openCache opens a disk cache in a fresh directory.
func openCache(tb testing.TB) *cache.Cache {
	tb.Helper()
	ch, err := cache.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// warmCache opens a cache in a fresh directory and populates it with
// one cold measurement of the synthetic corpus (both accounting
// variants, so every Figure 6 / Table 4 measurement path is covered).
// The cold pass is not timed.
func warmCache(tb testing.TB) *cache.Cache {
	tb.Helper()
	ch := openCache(tb)
	for _, acct := range []bool{true, false} {
		measureCorpus(tb, acct, measure.Options{Cache: ch})
	}
	return ch
}

// BenchmarkTable4WarmCache regenerates Table 4 with the synthetic
// corpus re-measured through a warm cache first. Table 4 proper refits
// the estimators on the paper's published dataset; the corpus
// measurement is where elaboration and synthesis live, and on the warm
// path every component must be served from the cache — the benchmark
// fails if a single synthesis runs.
func BenchmarkTable4WarmCache(b *testing.B) {
	b.ReportAllocs()
	ch := warmCache(b)
	before := ch.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measureCorpus(b, true, measure.Options{Cache: ch})
		if _, err := paper.Table4N(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := ch.Stats()
	if s.Misses != before.Misses {
		b.Fatalf("synthesis ran on the warm path: %d cache misses", s.Misses-before.Misses)
	}
	b.ReportMetric(float64(s.Hits-before.Hits)/float64(b.N), "cache_hits_per_op")
	b.ReportMetric(0, "synth_runs_per_op")
}

// BenchmarkMeasureCorpusWarmCache isolates the warm measurement path:
// all 18 components of the Figure 6 corpus served from the
// content-addressed cache with zero elaborations or syntheses.
func BenchmarkMeasureCorpusWarmCache(b *testing.B) {
	b.ReportAllocs()
	ch := warmCache(b)
	before := ch.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measureCorpus(b, true, measure.Options{Cache: ch})
	}
	b.StopTimer()
	s := ch.Stats()
	if s.Misses != before.Misses {
		b.Fatalf("synthesis ran on the warm path: %d cache misses", s.Misses-before.Misses)
	}
	b.ReportMetric(float64(s.Hits-before.Hits)/float64(b.N), "cache_hits_per_op")
}

// BenchmarkFigure6WarmCache runs the full accounting experiment with a
// warm cache: both corpus measurements (accounting on and off) hit the
// cache, leaving only the estimator refits as real work.
func BenchmarkFigure6WarmCache(b *testing.B) {
	b.ReportAllocs()
	ch := warmCache(b)
	before := ch.Stats()
	var res *paper.Figure6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := paper.Figure6Opts(paper.Opts{Cache: ch})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.StopTimer()
	s := ch.Stats()
	if s.Misses != before.Misses {
		b.Fatalf("synthesis ran on the warm path: %d cache misses", s.Misses-before.Misses)
	}
	b.ReportMetric(res.Without["FanInLC"]/res.With["FanInLC"], "faninlc_sigma_inflation")
	b.ReportMetric(float64(s.Hits-before.Hits)/float64(b.N), "cache_hits_per_op")
}

// ---------------------------------------------------------------
// Incremental remeasurement (dependency-graph edit loop)
// ---------------------------------------------------------------

// corpusUnits returns the 18 units of the Figure 6 corpus, with or
// without accounting; with it, they are the unit batch the incremental
// benchmarks remeasure.
func corpusUnits(useAccounting bool) []measure.Unit {
	var units []measure.Unit
	for _, c := range designs.All() {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: useAccounting})
	}
	return units
}

// measureCorpus measures the 18 Figure 6 components, with or without
// accounting, as one batch on a new paper session: ucpaper's corpus
// measurement, without the dataset rows.
func measureCorpus(tb testing.TB, useAccounting bool, o measure.Options) {
	tb.Helper()
	sess, err := paper.NewSession()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sess.MeasureAll(corpusUnits(useAccounting), o); err != nil {
		tb.Fatal(err)
	}
}

// editedSources returns the corpus sources with the one-module edit
// the edit-loop benchmarks and gates replay: RAT-Standard's table read
// inverted, which dirties exactly one of the 18 corpus units.
func editedSources(tb testing.TB) map[string]string {
	tb.Helper()
	const anchor = "= table_mem[raddr[AW-1:0]];"
	src := maps.Clone(designs.Sources())
	if !strings.Contains(src["RAT-Standard.v"], anchor) {
		tb.Fatalf("edit script stale: RAT-Standard.v does not contain %q", anchor)
	}
	src["RAT-Standard.v"] = strings.Replace(src["RAT-Standard.v"], anchor,
		"= ~table_mem[raddr[AW-1:0]];", 1)
	return src
}

// parseDesigns parses two source sets. Two parses of the same sources
// give two design objects, as a watch loop sees after a no-op save.
func parseDesigns(tb testing.TB, a, b map[string]string) [2]*hdl.Design {
	tb.Helper()
	var ds [2]*hdl.Design
	for i, src := range []map[string]string{a, b} {
		d, err := hdl.ParseDesign(src)
		if err != nil {
			tb.Fatal(err)
		}
		ds[i] = d
	}
	return ds
}

// remeasureLoop anchors a rolling baseline on ds[0] over the disk
// cache ch and returns a call that remeasures the pair's other design
// against it and rolls it forward, so successive calls alternate
// between the two designs and every call sees the same diff. One
// untimed remeasure per design first brings the loop to steady state:
// module hashes memoized on both design objects and every dirty unit's
// entries on disk (a -benchtime 1x run would otherwise time those
// one-off costs instead of the edit loop).
func remeasureLoop(tb testing.TB, ch *cache.Cache, ds [2]*hdl.Design) func() measure.RemeasureStats {
	units := corpusUnits(true)
	opts := measure.Options{Cache: ch}
	sess := measure.NewSession(ds[0])
	res, err := sess.MeasureAll(units, opts)
	if err != nil {
		tb.Fatal(err)
	}
	baseline, err := sess.Baseline(units, res, opts)
	if err != nil {
		tb.Fatal(err)
	}
	i := 0
	remeasure := func() measure.RemeasureStats {
		i++
		_, next, st, err := measure.NewSession(ds[i%2]).Remeasure(baseline, units, opts)
		if err != nil {
			tb.Fatal(err)
		}
		baseline = next
		return st
	}
	remeasure()
	remeasure()
	return remeasure
}

// benchRemeasure times remeasureLoop's calls and returns the last
// call's stats.
func benchRemeasure(b *testing.B, ds [2]*hdl.Design) measure.RemeasureStats {
	remeasure := remeasureLoop(b, openCache(b), ds)
	var st measure.RemeasureStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = remeasure()
	}
	b.StopTimer()
	return st
}

// BenchmarkIncrementalEdit times the edit loop the dependency graph
// exists for: one component-local edit of the corpus, remeasured
// against the rolling baseline with a warm disk cache. Each iteration
// diffs the per-module source hashes, finds the one-unit dirty cone,
// re-measures it (a warm component fetch), and serves the other 17
// units from the baseline. Parsing is excluded, consistent with the
// warm-cache benches. TestIncrementalEditCone gates the cone's work
// against a whole-unit remeasure.
func BenchmarkIncrementalEdit(b *testing.B) {
	st := benchRemeasure(b, parseDesigns(b, designs.Sources(), editedSources(b)))
	if st.DirtyUnits != 1 || st.CleanUnits != len(corpusUnits(true))-1 {
		b.Fatalf("dirty cone wrong: %d dirty / %d clean units (want 1 / 17)", st.DirtyUnits, st.CleanUnits)
	}
	b.ReportMetric(float64(st.DirtyUnits), "dirty_units_per_op")
	b.ReportMetric(float64(st.CleanUnits), "clean_units_per_op")
}

// BenchmarkRemeasureNoop times the no-change fast path: the corpus
// re-parsed without any edit and remeasured against the baseline. The
// diff must find an empty dirty cone and every unit must be served
// from the baseline — the floor of the watch loop in ucmetrics -watch.
func BenchmarkRemeasureNoop(b *testing.B) {
	src := designs.Sources()
	st := benchRemeasure(b, parseDesigns(b, src, src))
	if st.DirtyUnits != 0 || st.CleanUnits != len(corpusUnits(true)) {
		b.Fatalf("noop remeasure not clean: %d dirty / %d clean units (want 0 / 18)", st.DirtyUnits, st.CleanUnits)
	}
	b.ReportMetric(float64(st.CleanUnits), "clean_units_per_op")
}

// ---------------------------------------------------------------
// Pipeline micro-benchmarks
// ---------------------------------------------------------------

// BenchmarkSynthesizeCorpus synthesizes every synthetic component once
// per iteration — the cost floor of the Figure 6 experiment.
func BenchmarkSynthesizeCorpus(b *testing.B) {
	b.ReportAllocs()
	type prepared struct {
		c designs.Component
		d *hdl.Design
	}
	var preps []prepared
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prepared{c, d})
	}
	b.ResetTimer()
	cells := 0
	for i := 0; i < b.N; i++ {
		cells = 0
		for _, p := range preps {
			res, err := synth.Synthesize(p.d, p.c.Top, nil)
			if err != nil {
				b.Fatal(err)
			}
			cells += len(res.Optimized.Cells)
		}
	}
	b.ReportMetric(float64(cells), "total_cells")
}

// BenchmarkElaborateCorpus times elaboration of every corpus
// component at default parameters, comparing the uncached path
// against a warm session cache (the subtree-reuse fast path the
// accounting search's final builds ride on).
func BenchmarkElaborateCorpus(b *testing.B) {
	type prepared struct {
		c designs.Component
		d *hdl.Design
	}
	var preps []prepared
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prepared{c, d})
	}
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range preps {
				if _, _, err := elab.ElaborateOpts(p.d, p.c.Top, nil, elab.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("session-cache", func(b *testing.B) {
		b.ReportAllocs()
		caches := make([]*elab.Cache, len(preps))
		for i, p := range preps {
			caches[i] = elab.NewCache()
			if _, _, err := elab.ElaborateOpts(p.d, p.c.Top, nil, elab.Options{Cache: caches[i]}); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, p := range preps {
				if _, _, err := elab.ElaborateOpts(p.d, p.c.Top, nil, elab.Options{Cache: caches[j]}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("report-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range preps {
				if _, _, err := elab.ElaborateOpts(p.d, p.c.Top, nil, elab.Options{ReportOnly: true}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkMinimizeParamsCorpus times the scaling-rule search over
// every corpus component — the probe-heavy path the session
// elaboration cache exists for.
func BenchmarkMinimizeParamsCorpus(b *testing.B) {
	b.ReportAllocs()
	type prepared struct {
		c designs.Component
		d *hdl.Design
	}
	var preps []prepared
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prepared{c, d})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preps {
			if _, err := measure.MinimizeParamsN(p.d, p.c.Top, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchNetlist synthesizes the representative netlist the cache codec
// benchmarks serialize (IVM-Memory: large, RAM-bearing, so both the
// cell tables and the macro encoding are exercised).
func benchNetlist(b *testing.B) *netlist.Netlist {
	b.Helper()
	c, err := designs.ByLabel("IVM-Memory")
	if err != nil {
		b.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(d, c.Top, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res.Optimized
}

// BenchmarkCacheEncode serializes one representative cached netlist
// with the binary codec, as raw and as flate-compressed entries. Entry
// sizes are reported so the bench run doubles as a size-regression
// check.
func BenchmarkCacheEncode(b *testing.B) {
	nl := benchNetlist(b)
	key := cache.Key("bench-encode")
	b.Run("codec-raw", func(b *testing.B) {
		b.ReportAllocs()
		var payload, entry []byte
		for i := 0; i < b.N; i++ {
			payload = codec.AppendNetlist(payload[:0], nl)
			entry = codec.EncodeEntry(entry[:0], cache.SchemaVersion, key, payload, -1)
			if i == 0 {
				b.ReportMetric(float64(len(entry)), "entry_bytes")
			}
		}
	})
	b.Run("codec-flate", func(b *testing.B) {
		b.ReportAllocs()
		var payload, entry []byte
		for i := 0; i < b.N; i++ {
			payload = codec.AppendNetlist(payload[:0], nl)
			entry = codec.EncodeEntry(entry[:0], cache.SchemaVersion, key, payload, 0)
			if i == 0 {
				b.ReportMetric(float64(len(entry)), "entry_bytes")
			}
		}
	})
}

// BenchmarkCacheDecode is the warm-path kernel: one representative
// entry decoded per iteration, raw and compressed.
func BenchmarkCacheDecode(b *testing.B) {
	nl := benchNetlist(b)
	key := cache.Key("bench-decode")
	payload := codec.AppendNetlist(nil, nl)
	entryRaw := codec.EncodeEntry(nil, cache.SchemaVersion, key, payload, -1)
	entryFlate := codec.EncodeEntry(nil, cache.SchemaVersion, key, payload, 0)
	wantHash := nl.Hash()

	decodeEntry := func(b *testing.B, entry []byte) {
		b.Helper()
		b.ReportAllocs()
		var scratch []byte
		for i := 0; i < b.N; i++ {
			payload, _, err := codec.DecodeEntry(entry, cache.SchemaVersion, key, &scratch)
			if err != nil {
				b.Fatal(err)
			}
			got, err := codec.DecodeNetlist(codec.NewReader(payload))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && got.Hash() != wantHash {
				b.Fatal("decode changed the netlist")
			}
		}
	}
	b.Run("codec-raw", func(b *testing.B) { decodeEntry(b, entryRaw) })
	b.Run("codec-flate", func(b *testing.B) { decodeEntry(b, entryFlate) })
}

// BenchmarkNLMEFit times a single mixed-effects calibration.
func BenchmarkNLMEFit(b *testing.B) {
	b.ReportAllocs()
	comps := dataset.Paper()
	for i := 0; i < b.N; i++ {
		if _, err := core.CalibrateDEE1(comps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateEstimators1000 fits all 12 Table 4 estimators, mixed
// and fixed, on a seeded 1000-row, 24-project synthetic table: the
// fitting load of a corpus-scale sweep with no synthesis in front of
// it. On the paper's 18 rows the per-observation cost of a fit is
// invisible.
func BenchmarkEvaluateEstimators1000(b *testing.B) {
	b.ReportAllocs()
	comps := syntheticComponents(1000, 24, 1)
	var dee1 float64
	for i := 0; i < b.N; i++ {
		rows, err := core.EvaluateEstimatorsN(comps, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "DEE1" {
				dee1 = r.SigmaEps
			}
		}
	}
	b.ReportMetric(dee1, "dee1_sigma_eps")
}

// syntheticComponents draws an n-row database over every Table 3
// metric from a seeded model: each component has a lognormal latent
// size, each metric is that size times a per-metric scale and its own
// lognormal noise, and effort follows Equation 1 over Stmts and
// FanInLC with a lognormal productivity per project (components are
// dealt to projects round-robin) and lognormal error.
func syntheticComponents(n, projects int, seed int64) []dataset.Component {
	rng := rand.New(rand.NewSource(seed))
	prod := make([]float64, projects)
	for p := range prod {
		prod[p] = math.Exp(0.4 * rng.NormFloat64())
	}
	comps := make([]dataset.Component, n)
	for i := range comps {
		size := math.Exp(4 + 1.5*rng.NormFloat64())
		m := make(map[dataset.Metric]float64, len(dataset.AllMetrics))
		for j, metric := range dataset.AllMetrics {
			m[metric] = size * float64(j+1) * math.Exp(0.5*rng.NormFloat64())
		}
		p := i % projects
		eta := 0.01*m[dataset.Stmts] + 0.001*m[dataset.FanInLC]
		comps[i] = dataset.Component{
			Project: fmt.Sprintf("P%02d", p),
			Name:    fmt.Sprintf("c%04d", i),
			Effort:  eta / prod[p] * math.Exp(0.4*rng.NormFloat64()),
			Metrics: m,
		}
	}
	return comps
}

// BenchmarkParse times the µHDL front end on the full corpus sources.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := designs.FullDesign(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize times the netlist cleanup passes in isolation.
func BenchmarkOptimize(b *testing.B) {
	b.ReportAllocs()
	c, err := designs.ByLabel("IVM-Memory")
	if err != nil {
		b.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		b.Fatal(err)
	}
	res, err := synth.Synthesize(d, c.Top, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := netlist.OptimizeWS(res.Raw, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// paperNLMEData assembles an nlme.Data from the embedded paper
// dataset (zero values floored at 1, as in the reproduction).
func paperNLMEData(b *testing.B, metrics ...dataset.Metric) *nlme.Data {
	b.Helper()
	d := &nlme.Data{}
	for _, c := range dataset.Paper() {
		row := make([]float64, len(metrics))
		for k, m := range metrics {
			v := c.Metrics[m]
			if v == 0 {
				v = 1
			}
			row[k] = v
		}
		d.Groups = append(d.Groups, c.Project)
		d.Efforts = append(d.Efforts, c.Effort)
		d.Metrics = append(d.Metrics, row)
	}
	for _, m := range metrics {
		d.MetricNames = append(d.MetricNames, string(m))
	}
	return d
}

// ---------------------------------------------------------------
// Generated-corpus scaling (internal/gencorpus)
// ---------------------------------------------------------------

// generatedUnits builds the cold-measurement workload for a generated
// n-component corpus: the parsed design plus 2n units (every
// component with and without accounting), the same sweep
// `ucpaper -corpus-scale n` runs.
func generatedUnits(tb testing.TB, n int) (*hdl.Design, []measure.Unit) {
	tb.Helper()
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: n, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	design, err := corpus.Design(0)
	if err != nil {
		tb.Fatal(err)
	}
	units := make([]measure.Unit, 0, 2*n)
	for _, acct := range []bool{true, false} {
		for _, c := range corpus.Components {
			units = append(units, measure.Unit{Top: c.Top, UseAccounting: acct})
		}
	}
	return design, units
}

// measureGeneratedOnce cold-measures the workload through a fresh
// streaming session and returns the wall time.
func measureGeneratedOnce(tb testing.TB, design *hdl.Design, units []measure.Unit) time.Duration {
	tb.Helper()
	sess := measure.NewSession(design)
	start := time.Now()
	err := sess.MeasureStream(units, measure.Options{}, func(i int, res *measure.ComponentResult) error {
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkMeasureGenerated100 cold-measures a generated
// 100-component corpus (200 units) per iteration and reports
// per_component_ms.
func BenchmarkMeasureGenerated100(b *testing.B) {
	design, units := generatedUnits(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += measureGeneratedOnce(b, design, units)
	}
	b.StopTimer()
	perUnit := total.Seconds() * 1e3 / float64(b.N*len(units))
	b.ReportMetric(perUnit, "per_component_ms")
}

// BenchmarkMeasureGenerated1000 cold-measures a generated
// 1000-component corpus (2000 units) per iteration and reports
// scaling_ratio_vs_100: its per-component cost divided by a
// 100-component reference sweep's, measured in the same process.
// Near-linear scaling keeps the ratio around 1; a super-linear planner
// (a contended global table, a quadratic front end, unbounded
// retention forcing GC pressure) shows above it. The ratio is reported
// for profiling: TestMeasureStreamScaling gates the same ceiling, 1.3,
// on per-unit allocations and bytes, and the bench/ corpus-cold
// workload bounds the sweep's time.
func BenchmarkMeasureGenerated1000(b *testing.B) {
	refDesign, refUnits := generatedUnits(b, 100)
	refTime := measureGeneratedOnce(b, refDesign, refUnits)
	refPerUnit := refTime.Seconds() * 1e3 / float64(len(refUnits))

	design, units := generatedUnits(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += measureGeneratedOnce(b, design, units)
	}
	b.StopTimer()
	perUnit := total.Seconds() * 1e3 / float64(b.N*len(units))
	b.ReportMetric(perUnit, "per_component_ms")
	b.ReportMetric(perUnit/refPerUnit, "scaling_ratio_vs_100")
}

// ---------------------------------------------------------------
// Measurement daemon (internal/serve)
// ---------------------------------------------------------------

// servedRequest builds the 18-component paper-corpus request the
// daemon benchmarks serve.
func servedRequest(sources map[string]string) *serve.Request {
	var units []serve.UnitRequest
	for _, c := range designs.All() {
		units = append(units, serve.UnitRequest{Top: c.Top, Accounting: true})
	}
	return &serve.Request{Tenant: "bench", Sources: sources, Units: units}
}

// BenchmarkServedWarmRequest times one steady-state /measure round
// trip: the daemon's session already holds every signature, so an
// iteration pays HTTP, JSON, planning, and shared-flight lookups — the
// latency a warm client sees per request, not per measurement.
func BenchmarkServedWarmRequest(b *testing.B) {
	b.ReportAllocs()
	h := servetest.Start(b, serve.Config{MaxConcurrent: 4, Cache: openCache(b)})
	cl := h.Client()
	req := servedRequest(designs.Sources())
	ctx := context.Background()
	if _, err := cl.Measure(ctx, req); err != nil {
		b.Fatal(err) // cold fill, untimed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Measure(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Results) != len(req.Units) {
			b.Fatalf("%d results, want %d", len(resp.Results), len(req.Units))
		}
	}
	b.StopTimer()
	perUnit := b.Elapsed().Seconds() * 1e3 / float64(b.N*len(req.Units))
	b.ReportMetric(perUnit, "per_component_ms")
}

// BenchmarkServedRemeasure times the daemon's edit loop: alternating
// one-module edits (editedSources) POSTed to
// /remeasure, answered from the tenant's rolling baseline with only
// the one-unit dirty cone re-measured through a warm disk cache.
func BenchmarkServedRemeasure(b *testing.B) {
	b.ReportAllocs()
	reqs := [2]*serve.Request{servedRequest(designs.Sources()), servedRequest(editedSources(b))}

	h := servetest.Start(b, serve.Config{MaxConcurrent: 4, Cache: openCache(b)})
	cl := h.Client()
	ctx := context.Background()
	// Untimed warmup: anchor the rolling baseline on the base design,
	// then roll it through both variants so the timed loop starts in
	// steady state (both designs parsed, both graphs on disk, every
	// signature cached).
	for _, req := range []*serve.Request{reqs[0], reqs[1], reqs[0]} {
		if _, err := cl.Remeasure(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	var last *serve.RemeasureInfo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cl.Remeasure(ctx, reqs[(i+1)%2])
		if err != nil {
			b.Fatal(err)
		}
		last = resp.Remeasure
	}
	b.StopTimer()
	if last == nil || !last.Baseline {
		b.Fatal("remeasure did not roll the tenant baseline")
	}
	if last.DirtyUnits != 1 || last.CleanUnits != len(reqs[0].Units)-1 {
		b.Fatalf("dirty cone wrong over the wire: %d dirty / %d clean units (want 1 / %d)",
			last.DirtyUnits, last.CleanUnits, len(reqs[0].Units)-1)
	}
	b.ReportMetric(float64(last.DirtyUnits), "dirty_units_per_op")
	b.ReportMetric(float64(last.CleanUnits), "clean_units_per_op")
}
