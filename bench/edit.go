package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"regexp"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/serve"
)

// editKind classifies one save of the edit loop.
type editKind int

const (
	// editLocalNeutral adds a fresh unused wire to one component's top
	// module, replacing that module's previous probe: one dirty unit,
	// netlist unchanged, a cold re-measurement every time.
	editLocalNeutral editKind = iota
	// editLibNeutral does the same inside the shared lib_alu module,
	// dirtying every component that instantiates it.
	editLibNeutral
	// editLocalChange toggles the inversion of RAT-Standard's first read
	// port: one dirty unit whose two states are warm after their first
	// visit.
	editLocalChange
	// editNoop re-saves identical sources.
	editNoop
	numEditKinds
)

var editKindNames = [numEditKinds]string{"local_neutral", "lib_neutral", "local_change", "noop"}

// editMix is each kind's share of saves, in percent. It is assumed, not
// measured: no recorded trace of designers' saves exists to draw it
// from. It gives each kind enough saves for a per-kind median, makes
// most saves touch one component's own module as an edit-compile loop
// does, and counts the editor's autosaves and the watcher's wakeups on
// unchanged files as no-ops. The two neutral kinds together are 55% of
// saves, so an optimization of netlist-neutral edits moves the blended
// p50_ms by an amount this assumption sets; the per-kind
// measure.save_<kind>_p50_ms metrics do not depend on it.
var editMix = [numEditKinds]int{40, 15, 15, 30}

// deckSize is how many saves one shuffled deck of the mix holds: each
// successive block of deckSize saves has exactly editMix's proportions.
const deckSize = 20

// edit is one save: its kind and, for a local-neutral edit, the index
// of the component (designs.All order) it edits.
type edit struct {
	kind editKind
	comp int
}

// Stream ids that keep the edit loop's script and tenant B's edits in
// the served workload apart for one seed.
const (
	editLoopStream = 0x65646974
	tenantBStream  = 0x74656e42
)

// editStream deals seeded saves: the kinds in shuffled decks of
// deckSize, so every seed offers the same mix in a different order, and
// the local-neutral edits touching the components in seeded rounds.
type editStream struct {
	rng   *rand.Rand
	deck  []editKind
	comps *cycle
}

func newEditStream(seed, stream uint64) *editStream {
	rng := rand.New(rand.NewPCG(seed, stream))
	return &editStream{rng: rng, comps: newCycle(rng, len(designs.All()))}
}

func (s *editStream) next() edit {
	if len(s.deck) == 0 {
		for k, pct := range editMix {
			for i := 0; i < pct*deckSize/100; i++ {
				s.deck = append(s.deck, editKind(k))
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	e := edit{kind: s.deck[0]}
	s.deck = s.deck[1:]
	if e.kind == editLocalNeutral {
		e.comp = s.comps.next()
	}
	return e
}

// take returns the stream's next n saves.
func (s *editStream) take(n int) []edit {
	out := make([]edit, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// editScript is the edit loop's n saves for seed.
func editScript(seed uint64, n int) []edit {
	return newEditStream(seed, editLoopStream).take(n)
}

// cycle deals 0..n-1 in seeded rounds: each round is a fresh
// permutation, so every value comes up equally often.
type cycle struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newCycle(rng *rand.Rand, n int) *cycle { return &cycle{rng: rng, n: n} }

func (c *cycle) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
	}
	v := c.perm[0]
	c.perm = c.perm[1:]
	return v
}

const (
	libFile       = "lib.v"
	libEditModule = "lib_alu"
	ratFile       = "RAT-Standard.v"
	ratModule     = "rat_standard"
	ratPort       = "assign rtag[PW-1:0] = table_mem["
	ratPortInv    = "assign rtag[PW-1:0] = ~table_mem["
)

// editor holds the current sources of the paper corpus and applies
// edits to them in place.
type editor struct {
	sources  map[string]string
	probes   map[string]string // module → its current probe line
	next     int               // probe name counter: every probe is new
	inverted bool
}

func newEditor() *editor {
	return &editor{sources: designs.Sources(), probes: map[string]string{}}
}

// snapshot returns a copy of the current sources.
func (e *editor) snapshot() map[string]string {
	out := make(map[string]string, len(e.sources))
	for k, v := range e.sources {
		out[k] = v
	}
	return out
}

// sourcesAt applies script to a fresh editor and returns the sources
// after each save whose index is in want; index -1 is the sources
// before the first save. Edits are deterministic, so the workloads
// rebuild the sources they check or replay after their timed phase
// instead of holding them through it.
func sourcesAt(script []edit, want []int) (map[int]map[string]string, error) {
	need := map[int]bool{}
	last := -1
	for _, i := range want {
		need[i] = true
		last = max(last, i)
	}
	ed := newEditor()
	out := map[int]map[string]string{}
	if need[-1] {
		out[-1] = ed.snapshot()
	}
	for i := 0; i <= last; i++ {
		if _, err := ed.apply(script[i]); err != nil {
			return nil, err
		}
		if need[i] {
			out[i] = ed.snapshot()
		}
	}
	return out, nil
}

// apply performs one edit and returns the module it changed ("" for a
// no-op save).
func (e *editor) apply(ed edit) (string, error) {
	switch ed.kind {
	case editLocalNeutral:
		c := designs.All()[ed.comp]
		return c.Top, e.probe(c.Label()+".v", c.Top)
	case editLibNeutral:
		return libEditModule, e.probe(libFile, libEditModule)
	case editLocalChange:
		from, to := ratPort, ratPortInv
		if e.inverted {
			from, to = to, from
		}
		src := e.sources[ratFile]
		if !strings.Contains(src, from) {
			return "", fmt.Errorf("edit: %s has no %q", ratFile, from)
		}
		e.sources[ratFile] = strings.Replace(src, from, to, 1)
		e.inverted = !e.inverted
		return ratModule, nil
	}
	return "", nil
}

// probe replaces module's probe wire with a fresh one (fixed-width
// names keep the source size constant), adding the first one just
// before the module's endmodule.
func (e *editor) probe(file, module string) error {
	line := fmt.Sprintf("  wire bench_probe_%08d;\n", e.next)
	e.next++
	src := e.sources[file]
	if old, ok := e.probes[module]; ok {
		e.sources[file] = strings.Replace(src, old, line, 1)
	} else {
		loc := regexp.MustCompile(`(?m)^module\s+` + regexp.QuoteMeta(module) + `\b`).FindStringIndex(src)
		if loc == nil {
			return fmt.Errorf("edit: %s declares no module %s", file, module)
		}
		end := strings.Index(src[loc[1]:], "\nendmodule")
		if end < 0 {
			return fmt.Errorf("edit: module %s has no endmodule", module)
		}
		at := loc[1] + end + 1
		e.sources[file] = src[:at] + line + src[at:]
	}
	e.probes[module] = line
	return nil
}

// paperUnits are the 18 paper components measured with accounting, the
// batch ucmetrics -watch re-measures.
func paperUnits() []measure.Unit {
	var units []measure.Unit
	for _, c := range designs.All() {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: true})
	}
	return units
}

// dependents maps each module to the number of units whose transitive
// module set includes it: the dirty count an edit to the module
// predicts.
func dependents(d *hdl.Design, units []measure.Unit) (map[string]int, error) {
	out := map[string]int{}
	for _, u := range units {
		mods, err := d.TransitiveModules(u.Top)
		if err != nil {
			return nil, err
		}
		for _, m := range mods {
			out[m]++
		}
	}
	return out, nil
}

// fromScratch measures the sources with a fresh session and no cache
// and projects the results onto the wire form, the reference the
// incremental paths must match.
func fromScratch(sources map[string]string, units []measure.Unit) ([]serve.UnitResult, error) {
	d, err := hdl.ParseDesign(sources)
	if err != nil {
		return nil, err
	}
	res, err := measure.NewSession(d).MeasureAll(units, measure.Options{})
	if err != nil {
		return nil, err
	}
	return serve.ResultsOf(unitRequests(units), res), nil
}

func unitRequests(units []measure.Unit) []serve.UnitRequest {
	out := make([]serve.UnitRequest, len(units))
	for i, u := range units {
		out[i] = serve.UnitRequest{Top: u.Top, Accounting: u.UseAccounting}
	}
	return out
}

// sameResults reports whether two wire projections are identical.
func sameResults(got, want []serve.UnitResult) bool { return reflect.DeepEqual(got, want) }

// editState is the edit loop's rolling state.
type editState struct {
	ed   *editor
	c    *cache.Cache
	base *measure.Baseline
}

// runEditLoop is the `edit-loop` workload: a closed loop of
// `ucmetrics -watch` saves, one caller.
func runEditLoop(r *run) error {
	units := paperUnits()
	full, err := designs.FullDesign()
	if err != nil {
		return err
	}
	deps, err := dependents(full, units)
	if err != nil {
		return err
	}
	rec := &elab.StatsRecorder{}
	st, err := timedSetup(r, func() (*editState, error) {
		dir, err := r.scratchDir("edit-")
		if err != nil {
			return nil, err
		}
		c, err := cache.Open(dir)
		if err != nil {
			return nil, err
		}
		ed := newEditor()
		d, err := hdl.ParseDesign(ed.snapshot())
		if err != nil {
			return nil, err
		}
		sess := measure.NewSession(d)
		opts := measure.Options{Cache: c}
		res, err := sess.MeasureAll(units, opts)
		if err != nil {
			return nil, err
		}
		base, err := sess.Baseline(units, res, opts)
		if err != nil {
			return nil, err
		}
		return &editState{ed: ed, c: c, base: base}, nil
	}, nil)
	if err != nil {
		return err
	}

	script := editScript(r.seed, r.size.ops)
	opts := measure.Options{Cache: st.c, ElabStats: rec}
	byKind := make([][]float64, numEditKinds)
	// Saves checked against a from-scratch measurement keep only their
	// projected results and pending problems; the reference and the
	// sources it needs are computed after the timed phase.
	type pendingCheck struct {
		save     int
		what     string
		problems checks
		got      []serve.UnitResult
	}
	var pending []pendingCheck
	var samples []int // saves the traced run replays
	sampleEvery := max(r.size.ops/20, 1)
	var dirty, clean, dirtyMods, synthesized, shared, planned, parsedBytes int
	var neutral, tracedDirty int
	before := st.c.Stats()
	ph := startPhase()
	defer ph.stopSampling()
	for i, ed := range script {
		module, err := st.ed.apply(ed)
		if err != nil {
			return err
		}
		sources := st.ed.snapshot()
		want := 0
		if module != "" {
			want = deps[module]
		}

		tr := r.opTracer(i)
		t0 := time.Now()
		root := tr.begin(opSpan, -1, i)
		var d *hdl.Design
		err = tr.do("hdl.parse", root, i, func() (err error) {
			d, err = hdl.ParseDesign(sources)
			return err
		})
		var res []*measure.ComponentResult
		var next *measure.Baseline
		var rs measure.RemeasureStats
		var sess *measure.Session
		if err == nil {
			sess = measure.NewSession(d)
			err = tr.do("measure.batch", root, i, func() (err error) {
				res, next, rs, err = sess.Remeasure(st.base, units, opts)
				return err
			})
		}
		tr.end(root)
		ms := msSince(t0)
		r.addLatency(i, ms)
		if err != nil {
			r.fail("save %d (%s): %v", i, editKindNames[ed.kind], err)
			continue
		}
		if tr == nil {
			byKind[ed.kind] = append(byKind[ed.kind], ms)
		}

		what := fmt.Sprintf("save %d (%s of %q)", i, editKindNames[ed.kind], module)
		if (i+1)%r.size.checkEvery == 0 {
			pending = append(pending, pendingCheck{save: i, what: what,
				problems: dirtyCheck(what, rs, want), got: serve.ResultsOf(unitRequests(units), res)})
		} else {
			r.record(dirtyCheck(what, rs, want)...)
		}

		dirty += rs.DirtyUnits
		clean += rs.CleanUnits
		dirtyMods += rs.DirtyModules
		ss := sess.Stats()
		synthesized += ss.Synthesized
		shared += ss.Shared
		planned += ss.Planned
		parsedBytes += sourceBytes(sources)
		if tr != nil {
			neutral += sameNetlists(st.base, res)
			tracedDirty += rs.DirtyUnits
		}
		if i%sampleEvery == 0 {
			samples = append(samples, i)
		}
		st.base = next
	}
	ph.end(r, len(script))
	r.closedLoop()
	for k, lat := range byKind {
		r.logf("%s saves: %d untraced, p50 %.3f ms", editKindNames[k], len(lat), median(lat))
	}
	r.mixP50(byKind)

	want := make([]int, 0, len(pending)+2*len(samples))
	for _, p := range pending {
		want = append(want, p.save)
	}
	if r.tr != nil {
		for _, i := range samples {
			want = append(want, i-1, i)
		}
	}
	srcs, err := sourcesAt(script, want)
	if err != nil {
		return err
	}
	for _, p := range pending {
		ref, err := fromScratch(srcs[p.save], units)
		if err != nil {
			r.fail("save %d: from-scratch reference: %v", p.save, err)
			continue
		}
		r.record(append(p.problems, resultCheck(p.what, p.got, ref)...)...)
	}
	if r.tr == nil {
		return nil
	}

	n := float64(len(script))
	for k, lat := range byKind {
		r.layer["measure.save_"+editKindNames[k]+"_p50_ms"] = median(lat)
	}
	r.layer["hdl.parse_kb"] = float64(parsedBytes) / 1024 / n
	r.layer["measure.units"] = float64(len(units))
	r.layer["measure.dirty_units"] = float64(dirty) / n
	r.layer["measure.clean_units"] = float64(clean) / n
	r.layer["measure.synthesized"] = float64(synthesized) / n
	r.layer["measure.shared"] = float64(shared) / n
	r.layer["measure.share_ratio"] = ratio(float64(shared), float64(planned))
	r.layer["depgraph.dirty_modules"] = float64(dirtyMods) / n
	r.layer["measure.neutral_dirty_share"] = ratio(float64(neutral), float64(tracedDirty))
	ds, err := st.c.DiskStats()
	if err != nil {
		return err
	}
	fileCacheStats(r, subStats(st.c.Stats(), before), ds, n)
	setElabRatios(r, rec)
	jobs, err := replayJobs(srcs, samples, units)
	if err != nil {
		return err
	}
	_, err = replayAndFile(r, jobs, true, float64(len(jobs)))
	return err
}

// replayJobs parses the sources of each sampled save and pairs them
// with the dependency graph of the sources before it (srcs[i-1]).
func replayJobs(srcs map[int]map[string]string, samples []int, units []measure.Unit) ([]replayJob, error) {
	jobs := make([]replayJob, 0, len(samples))
	for _, i := range samples {
		d, err := hdl.ParseDesign(srcs[i])
		if err != nil {
			return nil, err
		}
		prev, err := prevGraph(srcs[i-1])
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, replayJob{design: d, units: units, prev: prev})
	}
	return jobs, nil
}

// dirtyCheck checks one save's dirty-unit count against its edit's
// prediction.
func dirtyCheck(what string, rs measure.RemeasureStats, want int) checks {
	var c checks
	c.expect(rs.DirtyUnits == want, "%s: %d dirty units, predicted %d", what, rs.DirtyUnits, want)
	return c
}

// resultCheck checks one save's results, projected onto the wire form,
// against a from-scratch reference.
func resultCheck(what string, got, ref []serve.UnitResult) checks {
	var c checks
	c.expect(sameResults(got, ref), "%s: incremental results differ from a from-scratch measurement", what)
	return c
}

// sameNetlists counts the units re-measured in res (a result the
// baseline did not supply) whose optimized netlist hashes equal the
// baseline's: dirty work an early cutoff could have skipped.
func sameNetlists(base *measure.Baseline, res []*measure.ComponentResult) int {
	n := 0
	for i, u := range base.Units {
		prev, ok := base.Result(u)
		if !ok || prev == res[i] || prev.Synth == nil || res[i].Synth == nil {
			continue
		}
		if prev.Synth.Optimized.Hash() == res[i].Synth.Optimized.Hash() {
			n++
		}
	}
	return n
}

// subStats returns the counter deltas a - b.
func subStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:         a.Hits - b.Hits,
		Misses:       a.Misses - b.Misses,
		Puts:         a.Puts - b.Puts,
		DecodeErrors: a.DecodeErrors - b.DecodeErrors,
		DecodeNanos:  a.DecodeNanos - b.DecodeNanos,
	}
}
