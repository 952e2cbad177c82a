package repro

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/netlist"
	"repro/internal/paper"
	"repro/internal/serve"
	"repro/internal/synth"
)

// The load-independent gates of the repository: allocation budgets and
// work counts that a host's speed or load cannot move. Wall-time bounds
// live in the bench/ module's workloads (bash bench/run.sh); warm runs
// that synthesize nothing are pinned by internal/paper's
// TestMeasureCorpusCacheDeterminism.

// memPerRun returns f's mean heap allocations per call as
// testing.AllocsPerRun counts them (GOMAXPROCS 1, one uncounted warm-up
// call), and its heap bytes per call as the least of memBatches batch
// means, also at GOMAXPROCS 1. TotalAlloc is process-wide, so another
// goroutine's allocations can raise a batch's mean but never lower it.
func memPerRun(runs int, f func()) (allocs, bytes float64) {
	allocs = testing.AllocsPerRun(runs, f)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	bytes = math.Inf(1)
	for range memBatches {
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, bytes
}

// memBatches is how many batches memPerRun takes the least byte mean
// of.
const memBatches = 3

// TestAllocBudgets bounds the allocations and heap bytes of one call of
// each hot path the benchmark workloads exercise. Each row records the
// counts read at GOMAXPROCS 1 (go1.24, linux/amd64) when the gate was
// set; the budget is those counts under the rule the retired benchmark
// gate applied, where a regression had to exceed 1.4× the recorded
// count and also exceed it by a fixed floor: max(1.4×allocs,
// allocs+16) and max(1.4×bytes, bytes+4 KiB). The floors only absorb
// run-to-run noise; bytes are the least of memPerRun's batch means, so
// background allocation no longer lands in them, and on the small rows
// a doubling of allocations still fails. The
// budgets are on each row's right; go test -v -run TestAllocBudgets
// prints the counts to record when a change moves one on purpose.
func TestAllocBudgets(t *testing.T) {
	cases := []struct {
		name          string
		allocs, bytes float64 // recorded per call
		setup         func(t *testing.T) func()
	}{
		{"paper/figure6-cold", 25380, 3041848, figure6Cold},                   // 35532 allocs, 4258587 B
		{"paper/accounting-searches", 14026, 1463296, accountingSearches},     // 19636 allocs, 2048614 B
		{"paper/extension-after-figure6", 1191, 76400, extensionAfterFigure6}, // 1667 allocs, 106960 B
		{"served/warm-measure-all", 770, 57272, warmMeasureAll},               // 1078 allocs, 80181 B
		{"served/warm-request", 872, 262592, warmRequest},                     // 1221 allocs, 367629 B
		{"edit-loop/incremental-edit", 75, 12272, incrementalEdit},            // 105 allocs, 17181 B
		{"edit-loop/noop-remeasure", 4, 960, noopRemeasure},                   // 20 allocs, 5056 B
		{"optimize/ivm-memory-reused-ws", 36, 3056, optimizeReusedWS},         // 52 allocs, 7152 B
		{"lower/corpus-reused-ws", 2195, 267144, lowerCorpusReusedWS},         // 3073 allocs, 374001 B
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs, bytes := memPerRun(1, c.setup(t))
			t.Logf("%.0f allocs %.0f bytes", allocs, bytes)
			if limit := max(1.4*c.allocs, c.allocs+16); allocs > limit {
				t.Errorf("%.0f allocs per call, budget %.0f (recorded %.0f)", allocs, limit, c.allocs)
			}
			if limit := max(1.4*c.bytes, c.bytes+4<<10); bytes > limit {
				t.Errorf("%.0f bytes per call, budget %.0f (recorded %.0f)", bytes, limit, c.bytes)
			}
		})
	}
}

// figure6Cold is the paper workload's heaviest exhibit: all 18
// components measured with and without accounting, no disk cache, and
// every estimator refitted on both corpora.
func figure6Cold(t *testing.T) func() {
	return func() {
		if _, err := paper.Figure6Opts(paper.Opts{}); err != nil {
			t.Fatal(err)
		}
	}
}

// accountingSearches is the scaling rule's search alone: the
// minimized parameters of all 18 paper components at concurrency 1,
// each search on a fresh elaboration cache, as a cold Figure 6 runs
// them.
func accountingSearches(t *testing.T) func() {
	full, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		for _, c := range designs.All() {
			if _, err := measure.MinimizeParamsN(full, c.Top, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// extensionAfterFigure6 is ucpaper -all's timing extension: its 18
// accounting units measured on the session Figure 6 already measured,
// so every search and synthesis is the session's to reuse.
func extensionAfterFigure6(t *testing.T) func() {
	sess, err := paper.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	opts := paper.Opts{Session: sess}
	if _, err := paper.Figure6Opts(opts); err != nil {
		t.Fatal(err)
	}
	return func() {
		if _, err := paper.TimingAwareOpts(opts); err != nil {
			t.Fatal(err)
		}
	}
}

// warmMeasureAll is a served /measure's measurement: the 18-unit
// corpus batch answered from a warm disk cache.
func warmMeasureAll(t *testing.T) func() {
	ch := warmCache(t)
	return func() {
		measureCorpus(t, true, measure.Options{Cache: ch})
	}
}

// warmRequest is one served /measure of the 18-unit corpus through the
// daemon's handler, in process: the body read, the request decode,
// admission, the measurement on a warm session and the response
// encoding. warmMeasureAll is the measurement inside it.
func warmRequest(t *testing.T) func() {
	h := serve.New(serve.Config{MaxConcurrent: 4, Cache: openCache(t)}).Handler()
	body, err := json.Marshal(servedRequest(designs.Sources()))
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/measure", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("/measure answered %d: %s", w.Code, w.Body)
		}
	}
	post() // the cold fill
	return post
}

// incrementalEdit is the edit-loop's changing save: the one-module
// RAT-Standard edit and its revert, alternately remeasured against the
// rolling baseline with a warm disk cache.
func incrementalEdit(t *testing.T) func() {
	remeasure := remeasureLoop(t, openCache(t), parseDesigns(t, designs.Sources(), editedSources(t)))
	return func() { remeasure() }
}

// noopRemeasure is the edit-loop's no-op save: two parses of the same
// sources remeasured alternately, so every call diffs a fresh design
// object to an empty dirty cone.
func noopRemeasure(t *testing.T) func() {
	src := designs.Sources()
	remeasure := remeasureLoop(t, openCache(t), parseDesigns(t, src, src))
	return func() { remeasure() }
}

// optimizeReusedWS runs the netlist optimizer over IVM-Memory's raw
// netlist with the one workspace a measurement worker keeps.
func optimizeReusedWS(t *testing.T) func() {
	c, err := designs.ByLabel("IVM-Memory")
	if err != nil {
		t.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, c.Top, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := &netlist.Workspace{}
	return func() {
		if _, _, err := netlist.OptimizeWS(res.Raw, ws); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalEditCone gates the edit loop's dirty cone by the work
// it saves, the count the retired speedup_vs_warm_whole_unit ≥ 5 time
// ratio stood for. On a warm cache the one-module RAT-Standard edit
// dirties 1 of the 18 corpus units; remeasuring it may read at most a
// fifth of the cache entries a warm whole-unit MeasureAll reads (at
// least one per unit), and every read must hit (a miss is a
// synthesis). A cone that stops pruning re-reads every unit and fails
// the fifth.
func TestIncrementalEditCone(t *testing.T) {
	ch := openCache(t)
	ds := parseDesigns(t, designs.Sources(), editedSources(t))
	remeasure := remeasureLoop(t, ch, ds)

	s0 := ch.Stats()
	st := remeasure()
	s1 := ch.Stats()
	if _, err := measure.NewSession(ds[1]).MeasureAll(corpusUnits(true), measure.Options{Cache: ch}); err != nil {
		t.Fatal(err)
	}
	s2 := ch.Stats()

	n := len(corpusUnits(true))
	if st.DirtyUnits != 1 || st.CleanUnits != n-1 {
		t.Errorf("dirty cone: %d dirty / %d clean units, want 1 / %d", st.DirtyUnits, st.CleanUnits, n-1)
	}
	editReads := s1.Hits + s1.Misses - s0.Hits - s0.Misses
	wholeReads := s2.Hits + s2.Misses - s1.Hits - s1.Misses
	if wholeReads < int64(n) {
		t.Errorf("warm whole-unit MeasureAll read %d cache entries for %d units", wholeReads, n)
	}
	if 5*editReads > wholeReads {
		t.Errorf("edit remeasure read %d cache entries, more than a fifth of a warm whole-unit MeasureAll's %d", editReads, wholeReads)
	}
	if m := s2.Misses - s0.Misses; m != 0 {
		t.Errorf("%d cache misses on a warm cache: the edit loop synthesized", m)
	}
}

// TestMeasureStreamScaling bounds the per-unit allocations and heap
// bytes of a cold MeasureStream of the 1000-component generated corpus
// (seed 1, 2000 units) at 1.3× those of the 100-component one, the
// ceiling the retired scaling_ratio_vs_100 time gate held. Both are
// counted in the same process at the same GOMAXPROCS. A planner whose
// tables grow super-linearly, or whose retention grows with the batch,
// allocates its way past the ceiling; super-linear time that does not
// allocate is left to the bench/ corpus-cold workload.
func TestMeasureStreamScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 2000-unit corpus")
	}
	perUnit := func(n int) (allocs, bytes float64) {
		design, units := generatedUnits(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measureGeneratedOnce(t, design, units)
		runtime.ReadMemStats(&after)
		u := float64(len(units))
		return float64(after.Mallocs-before.Mallocs) / u, float64(after.TotalAlloc-before.TotalAlloc) / u
	}
	refAllocs, refBytes := perUnit(100)
	allocs, bytes := perUnit(1000)
	if allocs > 1.3*refAllocs {
		t.Errorf("N=1000 allocates %.0f per unit, more than 1.3× N=100's %.0f", allocs, refAllocs)
	}
	if bytes > 1.3*refBytes {
		t.Errorf("N=1000 allocates %.0f bytes per unit, more than 1.3× N=100's %.0f", bytes, refBytes)
	}
}

// TestMetricKernelsOncePerNetlist gates the session's netlist memo by
// the work it saves: a cold sequential sweep of the 100-component
// generated corpus runs the metric kernels (cones, LUT mapping, power,
// areas, Stats, the timing summary) once per distinct optimized
// netlist, not once per synthesized signature. Every signature runs
// them unless the memo answered it, so the runs are Synthesized less
// MetricsReused. A sweep without the memo runs them for every
// signature and fails.
func TestMetricKernelsOncePerNetlist(t *testing.T) {
	design, units := generatedUnits(t, 100)
	sess := measure.NewSession(design)
	results, err := sess.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	netlists := map[string]bool{}
	for _, r := range results {
		netlists[r.NetlistHash] = true
	}
	st := sess.Stats()
	if runs := st.Synthesized - st.MetricsReused; runs != len(netlists) {
		t.Errorf("metric kernels ran %d times (%d signatures synthesized, %d reused) for %d distinct netlists",
			runs, st.Synthesized, st.MetricsReused, len(netlists))
	}
}

// TestStructuralKeysOncePerDesignPoint gates the session's name-blind
// keys by the work they save: a cold sequential sweep of the
// 100-component generated corpus, whose components are mostly renamed
// copies of each other that also differ in parameter defaults no
// elaboration reads, synthesizes once per distinct design point and
// searches once per distinct structural top.
//
// A design point is (the top's hdl.Design.DesignPointHash, its full
// resolved parameters under no module name, the dedup flag when the
// hierarchy can stamp duplicate siblings); a structural top is its
// hdl.Design.StructuralHash, which keeps the top's own defaults.
// Searches are counted by their probes: the probes the sweep ran must
// equal the sum, over one accounting unit per structure, of the probes
// its search reports. A session that keys any of these by module name,
// or by a default no elaboration reads, runs more of both and fails; a
// search with no candidate to probe is not seen by this count.
func TestStructuralKeysOncePerDesignPoint(t *testing.T) {
	design, units := generatedUnits(t, 100)
	rec := &elab.StatsRecorder{}
	sess := measure.NewSession(design)
	results, err := sess.MeasureAll(units, measure.Options{Concurrency: 1, ElabStats: rec})
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]bool{}
	named := map[string]bool{} // the same points keyed by StructuralHash
	searched := map[string]*measure.ComponentResult{}
	for i, u := range units {
		st, err := design.StructuralHash(u.Top)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := design.DesignPointHash(u.Top)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := design.Module(u.Top)
		if err != nil {
			t.Fatal(err)
		}
		full, err := elab.ResolveParams(mod, results[i].MinimizedParams)
		if err != nil {
			t.Fatal(err)
		}
		dedup := "any"
		if duplicateSiblingsPossible(t, design, u.Top) {
			dedup = strconv.FormatBool(u.UseAccounting)
		}
		points[pt+"|"+elab.ParamSignature("", full)+"|"+dedup] = true
		named[st+"|"+elab.ParamSignature("", full)+"|"+dedup] = true
		if u.UseAccounting {
			searched[st] = results[i]
		}
	}
	if len(searched) >= len(units)/2 {
		t.Fatalf("%d structures for %d components: the corpus has no renamed copy", len(searched), len(units)/2)
	}
	if len(points) >= len(named) {
		t.Fatalf("%d design points for %d structural ones: the corpus has no copy that differs only in dead defaults", len(points), len(named))
	}
	if st := sess.Stats(); st.Synthesized != len(points) {
		t.Errorf("synthesized %d flights for %d distinct design points", st.Synthesized, len(points))
	}
	var wantHits, wantMisses int
	for _, r := range searched {
		wantHits += r.ElabCacheHits
		wantMisses += r.ElabCacheMisses
	}
	if _, hits, misses := rec.Snapshot(); hits != wantHits || misses != wantMisses {
		t.Errorf("searches ran %d/%d probe hits/misses; one search per %d structures runs %d/%d",
			hits, misses, len(searched), wantHits, wantMisses)
	}
}

// TestCacheRecordsPerStructure gates what the disk cache persists: a
// cold sweep of the 100-component generated corpus writes one "search"
// record per structure searched and one "sig" record per design point,
// no per-unit record, and reads nothing back, at one worker and at
// eight. A warm rerun in a fresh session reads every record once,
// writes none, synthesizes nothing and runs no search probe.
func TestCacheRecordsPerStructure(t *testing.T) {
	design, units := generatedUnits(t, 100)
	structures := map[string]bool{}
	for _, u := range units {
		if !u.UseAccounting {
			continue
		}
		st, err := design.StructuralHash(u.Top)
		if err != nil {
			t.Fatal(err)
		}
		structures[st] = true
	}
	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		cold, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sess := measure.NewSession(design)
		if _, err := sess.MeasureAll(units, measure.Options{Concurrency: workers, Cache: cold}); err != nil {
			t.Fatal(err)
		}
		st := sess.Stats()
		points := int64(st.Planned - st.Shared)
		cs := cold.Stats()
		if cs.Hits != 0 || cs.Puts != int64(len(structures))+points {
			t.Errorf("workers=%d cold: %d hits, %d puts; want 0 hits, %d puts (%d structures + %d design points)",
				workers, cs.Hits, cs.Puts, int64(len(structures))+points, len(structures), points)
		}
		if ds, _ := cold.DiskStats(); ds.Kinds["component"].Entries != 0 {
			t.Errorf("workers=%d cold: %d component records, want none", workers, ds.Kinds["component"].Entries)
		}

		warm, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec := &elab.StatsRecorder{}
		wsess := measure.NewSession(design)
		if _, err := wsess.MeasureAll(units, measure.Options{Concurrency: workers, Cache: warm, ElabStats: rec}); err != nil {
			t.Fatal(err)
		}
		ws := warm.Stats()
		_, hits, misses := rec.Snapshot()
		if ws.Hits != cs.Puts || ws.Misses != 0 || ws.Puts != 0 || wsess.Stats().Synthesized != 0 || hits+misses != 0 {
			t.Errorf("workers=%d warm: %d hits, %d misses, %d puts, %d synthesized, %d probes; want %d hits and nothing else",
				workers, ws.Hits, ws.Misses, ws.Puts, wsess.Stats().Synthesized, hits+misses, cs.Puts)
		}
	}
}

// duplicateSiblingsPossible is the session's static dedup test, read
// off the AST: some module under top instantiates one module name
// twice (generate branches counted together) or instantiates inside a
// generate loop.
func duplicateSiblingsPossible(t *testing.T, d *hdl.Design, top string) bool {
	names, err := d.TransitiveModules(top)
	if err != nil {
		t.Fatal(err)
	}
	var repeats func(items []hdl.Item, inLoop bool, seen map[string]bool) bool
	repeats = func(items []hdl.Item, inLoop bool, seen map[string]bool) bool {
		for _, it := range items {
			switch v := it.(type) {
			case *hdl.Instance:
				if inLoop || seen[v.ModuleName] {
					return true
				}
				seen[v.ModuleName] = true
			case *hdl.GenFor:
				if repeats(v.Body, true, seen) {
					return true
				}
			case *hdl.GenIf:
				if repeats(v.Then, inLoop, seen) || repeats(v.Else, inLoop, seen) {
					return true
				}
			}
		}
		return false
	}
	for _, name := range names {
		m, err := d.Module(name)
		if err != nil {
			t.Fatal(err)
		}
		if repeats(m.Items, false, map[string]bool{}) {
			return true
		}
	}
	return false
}

// lowerCorpusReusedWS lowers every corpus component's default-parameter
// instance tree with the one workspace a measurement worker keeps, and
// so with the templates it keeps: the shared library modules are
// recorded once, not once per component. Lowering is the largest
// layer of a cold sweep (synth.lower_ms in the bench/ module's traced
// corpus-cold run).
func lowerCorpusReusedWS(t *testing.T) func() {
	var insts []*elab.Instance
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := elab.ElaborateOpts(d, c.Top, nil, elab.Options{})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	ws := synth.NewWorkspace()
	return func() {
		for _, inst := range insts {
			if _, _, err := synth.LowerOpts(inst, synth.LowerOptions{Workspace: ws}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
