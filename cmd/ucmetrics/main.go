// Command ucmetrics measures the Table 3 metrics of a µHDL design
// component using the µComplexity accounting procedure.
//
// Usage:
//
//	ucmetrics -top <module> file.v [more.v ...]   measure your own design
//	ucmetrics -builtin <Project-Name>             measure a bundled synthetic component
//	ucmetrics -builtin all                        measure the whole corpus
//	ucmetrics -diff -top <module> OLD NEW         remeasure an edit incrementally
//	ucmetrics -watch -top <module> file.v [...]   remeasure on every file change
//	ucmetrics -generate N                         measure a generated N-component corpus
//
// Flags:
//
//	-generate N      generate a seeded synthetic corpus of N components
//	                 (internal/gencorpus) and measure every component
//	                 through one streaming session; with -csv the rows
//	                 carry the generator's synthetic efforts
//	-gen-seed S      generator seed for -generate (default 1)
//	-gen-out DIR     write the generated sources to DIR as .v files
//	                 instead of measuring them
//	-no-accounting   disable the Section 2.2 accounting procedure
//	-csv             emit the measurement as a CSV database row
//	-diff            OLD and NEW are two versions of a design (each a
//	                 µHDL file or a directory of .v files): measure OLD
//	                 as the baseline, diff the dependency graphs, and
//	                 re-measure only the subtrees the edit dirtied,
//	                 printing per-metric deltas
//	-watch           keep the measured design warm: poll the source
//	                 files and incrementally remeasure on every change,
//	                 printing deltas per iteration
//	-watch-interval  poll period for -watch (default 500ms)
//	-session-stats   report the dirty/clean module and unit partition
//	                 of each incremental remeasure on stderr, the dirty
//	                 units the early cutoff answered, and the session
//	                 sharing summary
//	-cache-dir DIR   cache measurements on disk (default
//	                 $UCOMPLEXITY_CACHE; results are identical with
//	                 and without the cache)
//	-cache-stats     report the cache's on-disk footprint (entries,
//	                 bytes, compression ratio, per-kind rows) and this
//	                 run's decode cost on stderr
//	-cpuprofile FILE write a CPU profile of the run
//	-memprofile FILE write a heap profile of the run
//	-alloc-stats     report runtime.MemStats deltas (allocations,
//	                 bytes, GC cycles) for the measurement on stderr
//
// All measurements run through one measure.Session: with -builtin all
// the whole corpus is parsed once and each distinct (module,
// parameters) signature is synthesized exactly once across the 18
// components. A session summary (components measured, signatures
// planned / synthesized / shared) is reported on stderr. The -diff and
// -watch modes run the incremental remeasurement layer: a dependency
// graph recorded at the baseline marks a unit dirty when its top's
// subtree hash changed, clean units are served from the baseline
// results, and only dirty units are re-planned and re-synthesized. A dirty unit whose
// optimized netlist hashes as its baseline's reuses the baseline's
// synthesis metrics (the early cutoff).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/designs"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// config carries the parsed command line.
type config struct {
	top           string
	builtin       string
	useAccounting bool
	asCSV         bool
	diff          bool
	watch         bool
	generate      int
	genSeed       uint64
	genOut        string
	interval      time.Duration
	sessionStats  bool
	cacheDir      string
	cacheStats    bool
	files         []string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.top, "top", "", "top module to measure")
	flag.StringVar(&cfg.builtin, "builtin", "", "bundled component label (e.g. IVM-Rename) or 'all'")
	noAccounting := flag.Bool("no-accounting", false, "disable the accounting procedure")
	flag.BoolVar(&cfg.asCSV, "csv", false, "emit CSV database rows")
	flag.BoolVar(&cfg.diff, "diff", false, "incrementally remeasure NEW against OLD (two positional paths)")
	flag.BoolVar(&cfg.watch, "watch", false, "poll the sources and incrementally remeasure on change")
	flag.IntVar(&cfg.generate, "generate", 0, "generate and measure a seeded synthetic corpus of N components")
	flag.Uint64Var(&cfg.genSeed, "gen-seed", 1, "generator seed for -generate")
	flag.StringVar(&cfg.genOut, "gen-out", "", "write the generated sources to this directory instead of measuring")
	flag.DurationVar(&cfg.interval, "watch-interval", 500*time.Millisecond, "poll period for -watch")
	flag.BoolVar(&cfg.sessionStats, "session-stats", false, "report dirty/clean partitions and session sharing on stderr")
	flag.StringVar(&cfg.cacheDir, "cache-dir", cache.DefaultDir(), "measurement cache directory (default $"+cache.EnvVar+"; empty = no cache)")
	flag.BoolVar(&cfg.cacheStats, "cache-stats", false, "report cache disk footprint and decode cost on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write CPU profile to file")
	memProfile := flag.String("memprofile", "", "write heap profile to file")
	allocStats := flag.Bool("alloc-stats", false, "report runtime.MemStats deltas for the run on stderr")
	flag.Parse()
	cfg.useAccounting = !*noAccounting
	cfg.files = flag.Args()

	if err := profiledRun(cfg, *cpuProfile, *memProfile, *allocStats); err != nil {
		fmt.Fprintln(os.Stderr, "ucmetrics:", err)
		os.Exit(1)
	}
}

// profiledRun wraps run with the observability flags: CPU/heap
// profiles (same shape as ucpaper's) and the -alloc-stats MemStats
// delta line used to sanity-check steady-state allocation behaviour
// without a benchmark harness.
func profiledRun(cfg config, cpuProfile, memProfile string, allocStats bool) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ucmetrics:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ucmetrics:", err)
			}
		}()
	}

	var before runtime.MemStats
	if allocStats {
		runtime.ReadMemStats(&before)
	}
	err := run(cfg)
	if allocStats {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		fmt.Fprintf(os.Stderr, "alloc-stats: %d allocs, %d bytes allocated, %d GC cycles, %.3f ms GC pause\n",
			after.Mallocs-before.Mallocs,
			after.TotalAlloc-before.TotalAlloc,
			after.NumGC-before.NumGC,
			float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	}
	return err
}

// target names one component to measure within the session's design.
type target struct {
	project string
	top     string
	effort  float64
}

func run(cfg config) error {
	opts := measure.Options{}
	if cfg.cacheDir != "" {
		c, err := cache.Open(cfg.cacheDir)
		if err != nil {
			return err
		}
		opts.Cache = c
		if cfg.cacheStats {
			defer c.WriteReport(os.Stderr)
		}
	} else if cfg.cacheStats {
		return fmt.Errorf("-cache-stats needs a cache (-cache-dir or $%s)", cache.EnvVar)
	}

	switch {
	case cfg.diff && cfg.watch:
		return fmt.Errorf("-diff and -watch are mutually exclusive")
	case cfg.generate > 0 && (cfg.diff || cfg.watch || cfg.builtin != ""):
		return fmt.Errorf("-generate is exclusive with -diff, -watch and -builtin")
	case cfg.generate > 0:
		return runGenerate(cfg, opts)
	case cfg.diff:
		return runDiff(cfg, opts)
	case cfg.watch:
		return runWatch(cfg, opts)
	}

	var d *hdl.Design
	var targets []target
	switch {
	case cfg.builtin == "all":
		full, err := designs.FullDesign()
		if err != nil {
			return err
		}
		d = full
		for _, c := range designs.All() {
			targets = append(targets, target{c.Project, c.Top, c.Effort})
		}
	case cfg.builtin != "":
		c, err := designs.ByLabel(cfg.builtin)
		if err != nil {
			return err
		}
		d, err = designs.Design(c)
		if err != nil {
			return err
		}
		targets = []target{{c.Project, c.Top, c.Effort}}
	default:
		if cfg.top == "" || len(cfg.files) == 0 {
			return fmt.Errorf("need -top and at least one source file (or -builtin)")
		}
		sources, err := loadSources(cfg.files)
		if err != nil {
			return err
		}
		d, err = hdl.ParseDesign(sources)
		if err != nil {
			return err
		}
		targets = []target{{"user", cfg.top, 0}}
	}

	sess := measure.NewSession(d)
	units := make([]measure.Unit, len(targets))
	for i, t := range targets {
		units[i] = measure.Unit{Top: t.top, UseAccounting: cfg.useAccounting}
	}
	results, err := sess.MeasureAll(units, opts)
	if err != nil {
		return err
	}

	rows := make([]dataset.Component, len(targets))
	for i, t := range targets {
		rows[i] = dataset.Component{
			Project: t.project,
			Name:    t.top,
			Effort:  t.effort,
			Metrics: results[i].Metrics.MetricMap(),
		}
		if !cfg.asCSV {
			printResult(t.project, t.top, results[i])
		}
	}

	printSessionLine(sess)

	if cfg.asCSV {
		return dataset.WriteCSV(os.Stdout, rows)
	}
	return nil
}

// runGenerate builds a seeded synthetic corpus (internal/gencorpus)
// and either writes its sources to -gen-out or measures every
// component through one streaming session, so peak memory stays
// bounded at any corpus size. The generator's synthetic efforts ride
// along in the CSV rows, making the output directly fittable.
func runGenerate(cfg config, opts measure.Options) error {
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: cfg.generate, Seed: cfg.genSeed})
	if err != nil {
		return err
	}
	if cfg.genOut != "" {
		paths, err := corpus.WriteFiles(cfg.genOut)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d files to %s (corpus %s, seed %d)\n",
			len(paths), cfg.genOut, corpus.Fingerprint()[:12], cfg.genSeed)
		return nil
	}

	d, err := corpus.Design(0)
	if err != nil {
		return err
	}
	sess := measure.NewSession(d)
	units := make([]measure.Unit, len(corpus.Components))
	for i, c := range corpus.Components {
		units[i] = measure.Unit{Top: c.Top, UseAccounting: cfg.useAccounting}
	}
	rows := make([]dataset.Component, len(units))
	err = sess.MeasureStream(units, opts, func(i int, res *measure.ComponentResult) error {
		c := corpus.Components[i]
		rows[i] = dataset.Component{
			Project: c.Project,
			Name:    c.Top,
			Effort:  c.Effort,
			Metrics: res.Metrics.MetricMap(),
		}
		return nil
	})
	if err != nil {
		return err
	}
	printSessionLine(sess)
	if cfg.asCSV {
		return dataset.WriteCSV(os.Stdout, rows)
	}
	for _, r := range rows {
		fmt.Printf("%s-%s: effort=%.2f Cells=%g FFs=%g Nets=%g AreaS=%g Freq=%g\n",
			r.Project, r.Name, r.Effort,
			r.Metrics[dataset.Cells], r.Metrics[dataset.FFs], r.Metrics[dataset.Nets],
			r.Metrics[dataset.AreaS], r.Metrics[dataset.Freq])
	}
	return nil
}

// loadSources reads a set of paths into a source map. A directory
// contributes every .v file directly inside it; other paths are read
// as single files.
func loadSources(paths []string) (map[string]string, error) {
	sources := map[string]string{}
	add := func(p string) error {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sources[p] = string(data)
		return nil
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if err := add(p); err != nil {
				return nil, err
			}
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".v" {
				continue
			}
			if err := add(filepath.Join(p, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no source files under %v", paths)
	}
	return sources, nil
}

// measureBaseline measures the units on one parsed design and anchors
// a remeasurement baseline on the result.
func measureBaseline(sources map[string]string, units []measure.Unit, opts measure.Options) ([]*measure.ComponentResult, *measure.Baseline, error) {
	d, err := hdl.ParseDesign(sources)
	if err != nil {
		return nil, nil, err
	}
	sess := measure.NewSession(d)
	res, err := sess.MeasureAll(units, opts)
	if err != nil {
		return nil, nil, err
	}
	base, err := sess.Baseline(units, res, opts)
	return res, base, err
}

// runDiff measures OLD as the baseline and incrementally remeasures
// NEW against it, printing per-unit metric deltas.
func runDiff(cfg config, opts measure.Options) error {
	if cfg.top == "" || len(cfg.files) != 2 {
		return fmt.Errorf("-diff needs -top and exactly two paths (old and new)")
	}
	units := []measure.Unit{{Top: cfg.top, UseAccounting: cfg.useAccounting}}

	oldSrc, err := loadSources(cfg.files[:1])
	if err != nil {
		return err
	}
	oldRes, base, err := measureBaseline(oldSrc, units, opts)
	if err != nil {
		return fmt.Errorf("old %s: %w", cfg.files[0], err)
	}

	newSrc, err := loadSources(cfg.files[1:])
	if err != nil {
		return err
	}
	// The new design keeps the old design's file names where contents
	// moved, but keying is content-based (per-module hashes), so file
	// naming does not matter to the diff.
	d, err := hdl.ParseDesign(newSrc)
	if err != nil {
		return fmt.Errorf("new %s: %w", cfg.files[1], err)
	}
	sess := measure.NewSession(d)
	newRes, _, stats, err := sess.Remeasure(base, units, opts)
	if err != nil {
		return fmt.Errorf("new %s: %w", cfg.files[1], err)
	}

	printRemeasure(units, oldRes, newRes, stats)
	if cfg.sessionStats {
		printSessionStats(sess, stats)
	}
	return nil
}

// runWatch measures the design once, then polls the source paths and
// incrementally remeasures on every modification, printing deltas.
func runWatch(cfg config, opts measure.Options) error {
	if cfg.top == "" || len(cfg.files) == 0 {
		return fmt.Errorf("-watch needs -top and at least one source path")
	}
	units := []measure.Unit{{Top: cfg.top, UseAccounting: cfg.useAccounting}}

	sources, err := loadSources(cfg.files)
	if err != nil {
		return err
	}
	res, base, err := measureBaseline(sources, units, opts)
	if err != nil {
		return err
	}
	printResult("watch", cfg.top, res[0])
	stamps := sourceStamps(cfg.files)

	// pending holds paths that vanished on the previous poll. One poll
	// of grace covers an editor's rename/replace window; a path still
	// missing a full interval later really is gone, and a silently
	// shrunken design must not keep being remeasured as if whole.
	pending := map[string]bool{}
	for {
		time.Sleep(cfg.interval)
		next := sourceStamps(cfg.files)
		if gone := stillGone(pending, next); len(gone) > 0 {
			return fmt.Errorf("watch: %s vanished and did not reappear within one poll", strings.Join(gone, ", "))
		}
		pending = map[string]bool{}
		if stampsEqual(stamps, next) {
			continue
		}
		refreshed, vanished, err := refreshSources(sources, stamps, next)
		stamps = next
		if err != nil {
			fmt.Fprintln(os.Stderr, "ucmetrics: watch:", err)
			continue
		}
		sources = refreshed
		if len(vanished) > 0 {
			// Mid-rename window: keep the stale content cached, skip
			// this tick's remeasure, and give the file one poll to
			// come back.
			for _, p := range vanished {
				pending[p] = true
			}
			continue
		}
		d, err := hdl.ParseDesign(sources)
		if err != nil {
			// Mid-edit sources often do not parse; keep the baseline and
			// wait for the next change.
			fmt.Fprintln(os.Stderr, "ucmetrics: watch:", err)
			continue
		}
		sess := measure.NewSession(d)
		newRes, nextBase, stats, err := sess.Remeasure(base, units, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ucmetrics: watch:", err)
			continue
		}
		printRemeasure(units, res, newRes, stats)
		if cfg.sessionStats {
			printSessionStats(sess, stats)
		}
		res, base = newRes, nextBase
	}
}

// sourceStamps snapshots the watched paths' modification times (files
// directly named plus .v files one level under named directories). A
// vanished path records a zero time, so deletions register as changes.
func sourceStamps(paths []string) map[string]time.Time {
	stamps := map[string]time.Time{}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			stamps[p] = time.Time{}
			continue
		}
		if !info.IsDir() {
			stamps[p] = info.ModTime()
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			stamps[p] = time.Time{}
			continue
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".v" {
				continue
			}
			fi, err := e.Info()
			if err != nil {
				continue
			}
			stamps[filepath.Join(p, e.Name())] = fi.ModTime()
		}
	}
	return stamps
}

// refreshSources advances a watched source map from one stamp
// snapshot to the next, re-reading only the files whose modification
// time changed; unchanged files keep their cached content, so a poll
// tick's cost is proportional to the edit, not the design. (The flip
// side is the usual mtime-watcher contract: a rewrite that preserves
// the modification time is not picked up until the file's stamp next
// moves.)
//
// A named path that vanished (zero stamp) but still has cached
// content is NOT an immediate error: editors routinely save via
// rename/replace, so a poll can land in the window where the old file
// is gone and the new one not yet in place. The path keeps its stale
// content and is reported in the vanished list; the caller retries on
// the next poll and only a path still missing then is a hard error. A
// vanished path with no cached content to fall back on fails
// immediately, same as a full reload's.
func refreshSources(prev map[string]string, old, next map[string]time.Time) (map[string]string, []string, error) {
	out := make(map[string]string, len(next))
	var vanished []string
	for p, t := range next {
		if t.IsZero() {
			if src, ok := prev[p]; ok {
				out[p] = src
				vanished = append(vanished, p)
				continue
			}
			return nil, nil, fmt.Errorf("stat %s: path vanished", p)
		}
		if ot, ok := old[p]; ok && ot.Equal(t) {
			if src, ok := prev[p]; ok {
				out[p] = src
				continue
			}
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		out[p] = string(data)
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("no source files remain")
	}
	sort.Strings(vanished)
	return out, vanished, nil
}

// stillGone reports which previously-vanished paths are still missing
// in the next stamp snapshot: a vanish that survived a whole poll
// interval is no longer a transient rename/replace window.
func stillGone(pending map[string]bool, next map[string]time.Time) []string {
	var gone []string
	for p := range pending {
		if next[p].IsZero() {
			gone = append(gone, p)
		}
	}
	sort.Strings(gone)
	return gone
}

func stampsEqual(a, b map[string]time.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || !bv.Equal(v) {
			return false
		}
	}
	return true
}

// printRemeasure reports one incremental remeasurement: the module
// edits the dependency diff found and, per unit, the metric deltas
// against the previous results.
func printRemeasure(units []measure.Unit, oldRes, newRes []*measure.ComponentResult, stats measure.RemeasureStats) {
	if len(stats.ChangedModules) > 0 {
		fmt.Printf("changed modules: %v\n", stats.ChangedModules)
	}
	if len(stats.AddedModules) > 0 {
		fmt.Printf("added modules:   %v\n", stats.AddedModules)
	}
	if len(stats.RemovedModules) > 0 {
		fmt.Printf("removed modules: %v\n", stats.RemovedModules)
	}
	for i, u := range units {
		om, nm := oldRes[i].Metrics.MetricMap(), newRes[i].Metrics.MetricMap()
		names := make([]string, 0, len(nm))
		for name := range nm {
			names = append(names, string(name))
		}
		sort.Strings(names)
		changed := false
		for _, name := range names {
			k := dataset.Metric(name)
			if om[k] != nm[k] {
				if !changed {
					fmt.Printf("%s (accounting=%t):\n", u.Top, u.UseAccounting)
					changed = true
				}
				fmt.Printf("  %-14s %12g -> %-12g (%+g)\n", name, om[k], nm[k], nm[k]-om[k])
			}
		}
		if !changed {
			fmt.Printf("%s (accounting=%t): metrics unchanged\n", u.Top, u.UseAccounting)
		}
	}
}

// printSessionStats reports the incremental partition — how much of
// the design and the batch the edit actually dirtied — plus the
// session sharing counters for the dirty part.
func printSessionStats(sess *measure.Session, stats measure.RemeasureStats) {
	fmt.Fprintf(os.Stderr, "session-stats: %d dirty / %d clean modules; %d dirty / %d clean units; %d cut off\n",
		stats.DirtyModules, stats.CleanModules, stats.DirtyUnits, stats.CleanUnits, stats.CutoffUnits)
	printSessionLine(sess)
}

// printSessionLine reports the session's sharing counters and its
// elaboration cache totals on stderr.
func printSessionLine(sess *measure.Session) {
	s := sess.Stats()
	e := sess.ElabStats()
	fmt.Fprintf(os.Stderr, "session: %d components measured, %d signatures planned, %d synthesized, %d shared, %d metrics reused; elab cache %d hits, %d misses\n",
		s.Components, s.Planned, s.Synthesized, s.Shared, s.MetricsReused, e.Hits, e.Misses)
}

func printResult(project, top string, res *measure.ComponentResult) {
	m := res.Metrics
	fmt.Printf("%s-%s:\n", project, top)
	fmt.Printf("  Stmts=%d LoC=%d\n", m.Stmts, m.LoC)
	fmt.Printf("  FanInLC=%d (exact cones: %d)  Nets=%d  Cells=%d  FFs=%d\n",
		m.FanInLC, m.FanInLCExact, m.Nets, m.Cells, m.FFs)
	fmt.Printf("  Freq=%.1f MHz  AreaL=%.0f um2  AreaS=%.0f um2  PowerD=%.3f mW  PowerS=%.2f uW\n",
		m.FreqMHz, m.AreaL, m.AreaS, m.PowerD, m.PowerS)
	fmt.Printf("  accounting: %d unique modules, %d instances, %d deduplicated\n",
		len(res.UniqueModules), res.InstanceCount, res.DedupedInstances)
	if res.ElabCacheHits+res.ElabCacheMisses > 0 {
		fmt.Printf("  search memo: %d probe hits, %d probe misses\n",
			res.ElabCacheHits, res.ElabCacheMisses)
	}
	if len(res.MinimizedParams) > 0 {
		names := make([]string, 0, len(res.MinimizedParams))
		for n := range res.MinimizedParams {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("  minimized parameters:")
		for _, n := range names {
			fmt.Printf(" %s=%d", n, res.MinimizedParams[n])
		}
		fmt.Println()
	}
	fmt.Println()
}
