package measure_test

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// remeasureStep is one scripted edit of the corpus sources plus what
// the dependency diff must report for it.
type remeasureStep struct {
	name    string
	sources map[string]string
	// wantChanged/wantAdded/wantRemoved are the expected module-level
	// edit lists.
	wantChanged, wantAdded, wantRemoved []string
	// dirtyTops lists the top modules whose units must be re-measured
	// (computed in the test body for the lib edit).
	dirtyTops map[string]bool
	// neutral marks an edit that leaves every optimized netlist as it
	// was: every dirty unit must be cut off. Every other edit changes
	// each dirty unit's netlist, so none may be.
	neutral bool
	// dead marks a neutral edit that only adds an unused scalar wire,
	// which leaves every design-point key as it was: with a cache, the
	// dirty units read the records an earlier step wrote, synthesize
	// nothing and so reach no cutoff; without one, they are all cut off.
	dead bool
}

func editSource(t *testing.T, src map[string]string, file, old, new string) map[string]string {
	t.Helper()
	out := maps.Clone(src)
	s, ok := out[file]
	if !ok || !strings.Contains(s, old) {
		t.Fatalf("edit script stale: %s does not contain %q", file, old)
	}
	out[file] = strings.Replace(s, old, new, 1)
	return out
}

// neutralLocal and neutralLib are netlist-neutral edits: each adds a
// fresh unused two-bit wire to one module (rat_standard, a component's
// top, and the shared lib_alu), which changes the module's source hash
// and its design-point keys but not any optimized netlist. A ranged
// declaration stays in the keys, so a cached save still synthesizes
// and reaches the early cutoff.
func neutralLocal(t *testing.T, src map[string]string) map[string]string {
	t.Helper()
	return editSource(t, src, "RAT-Standard.v",
		"  localparam REGS = 1 << AW;", "  localparam REGS = 1 << AW;\n  wire [1:0] cutoff_probe_local;")
}

func neutralLib(t *testing.T, src map[string]string) map[string]string {
	t.Helper()
	return editSource(t, src, "lib.v",
		"  assign zero = y == 0;", "  assign zero = y == 0;\n  wire [1:0] cutoff_probe_lib;")
}

// TestRemeasureMatchesFromScratch is the golden test of incremental
// remeasurement: a scripted series of edits — a component-local edit,
// a shared-library edit, an unreferenced module addition, a full
// revert, a local and a library netlist-neutral edit, a changing edit
// after them, then a local and a library unused scalar wire —
// remeasured incrementally against the rolling baseline must be
// bit-identical to measuring each edited design from scratch, at
// workers 1 and 8, with the disk cache off and with one cache carried
// cold-to-warm across the whole series. The per-step dirty cone is
// pinned exactly: only units whose transitive subtree changed are
// re-measured. So is the early cutoff: every dirty unit of a neutral
// edit reuses its baseline metrics, and no unit of a changing edit
// does. An unused scalar wire keys every unit as before, so with the
// cache its dirty units read records and synthesize nothing: no
// search probe, no miss and no write.
func TestRemeasureMatchesFromScratch(t *testing.T) {
	base := designs.Sources()
	comps := designs.All()
	units := make([]measure.Unit, 0, len(comps)+2)
	for _, c := range comps {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: true})
	}
	// Two no-accounting units so the clean/dirty partition covers both
	// modes of one top.
	units = append(units,
		measure.Unit{Top: "rat_standard"},
		measure.Unit{Top: "puma_fetch"})

	// The edit script. Step sources accumulate: each step edits the
	// previous step's sources, and the last step reverts to base.
	local := editSource(t, base, "RAT-Standard.v",
		"= table_mem[raddr[AW-1:0]];", "= ~table_mem[raddr[AW-1:0]];")
	lib := editSource(t, local, "lib.v",
		"3'd6: y = a << 1;", "3'd6: y = a << 2;")
	added := maps.Clone(lib)
	added["RAT-Standard.v"] += "\nmodule remeasure_probe (input p_a, output p_y);\n  assign p_y = ~p_a;\nendmodule\n"
	localNeutral := neutralLocal(t, base)
	libNeutral := neutralLib(t, localNeutral)
	change := editSource(t, libNeutral, "RAT-Standard.v",
		"= table_mem[raddr[AW-1:0]];", "= ~table_mem[raddr[AW-1:0]];")
	localDead := editSource(t, change, "RAT-Standard.v",
		"  localparam REGS = 1 << AW;", "  localparam REGS = 1 << AW;\n  wire dead_probe_local;")
	libDead := editSource(t, localDead, "lib.v",
		"  assign zero = y == 0;", "  assign zero = y == 0;\n  wire dead_probe_lib;")

	// lib_alu's transitive users, read off the base design: the lib
	// edit must dirty exactly their units.
	full, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	aluUsers := map[string]bool{}
	for _, c := range comps {
		mods, err := full.TransitiveModules(c.Top)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mods {
			if m == "lib_alu" {
				aluUsers[c.Top] = true
			}
		}
	}
	if len(aluUsers) == 0 || aluUsers["rat_standard"] {
		t.Fatalf("edit script stale: lib_alu users = %v", aluUsers)
	}
	ratAndAlu := maps.Clone(aluUsers)
	ratAndAlu["rat_standard"] = true

	steps := []remeasureStep{
		{
			name: "component-local-edit", sources: local,
			wantChanged: []string{"rat_standard"},
			dirtyTops:   map[string]bool{"rat_standard": true},
		},
		{
			name: "shared-lib-edit", sources: lib,
			wantChanged: []string{"lib_alu"},
			dirtyTops:   aluUsers,
		},
		{
			name: "add-unreferenced-module", sources: added,
			wantAdded: []string{"remeasure_probe"},
			dirtyTops: map[string]bool{},
		},
		{
			name: "revert", sources: base,
			wantChanged: []string{"lib_alu", "rat_standard"},
			wantRemoved: []string{"remeasure_probe"},
			dirtyTops:   ratAndAlu,
		},
		{
			name: "local-neutral-edit", sources: localNeutral,
			wantChanged: []string{"rat_standard"},
			dirtyTops:   map[string]bool{"rat_standard": true},
			neutral:     true,
		},
		{
			name: "lib-neutral-edit", sources: libNeutral,
			wantChanged: []string{"lib_alu"},
			dirtyTops:   aluUsers,
			neutral:     true,
		},
		{
			name: "change-after-neutral", sources: change,
			wantChanged: []string{"rat_standard"},
			dirtyTops:   map[string]bool{"rat_standard": true},
		},
		{
			name: "local-dead-wire", sources: localDead,
			wantChanged: []string{"rat_standard"},
			dirtyTops:   map[string]bool{"rat_standard": true},
			neutral:     true, dead: true,
		},
		{
			name: "lib-dead-wire", sources: libDead,
			wantChanged: []string{"lib_alu"},
			dirtyTops:   aluUsers,
			neutral:     true, dead: true,
		},
	}

	// From-scratch references, one per step: fresh parse, fresh
	// session, sequential, no cache.
	refs := make([][]*measure.ComponentResult, len(steps))
	for i, st := range steps {
		d, err := hdl.ParseDesign(st.sources)
		if err != nil {
			t.Fatal(err)
		}
		refs[i], err = measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{1, 8} {
		for _, withCache := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/cache=%t", workers, withCache), func(t *testing.T) {
				opts := measure.Options{Concurrency: workers}
				if withCache {
					c, err := cache.Open(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					opts.Cache = c
				}

				// Baseline measurement on the unedited corpus.
				d, err := hdl.ParseDesign(base)
				if err != nil {
					t.Fatal(err)
				}
				sess := measure.NewSession(d)
				res, err := sess.MeasureAll(units, opts)
				if err != nil {
					t.Fatal(err)
				}
				prev, err := sess.Baseline(units, res, opts)
				if err != nil {
					t.Fatal(err)
				}

				for i, st := range steps {
					d, err := hdl.ParseDesign(st.sources)
					if err != nil {
						t.Fatal(err)
					}
					var before cache.Stats
					stepOpts := opts
					rec := &elab.StatsRecorder{}
					if withCache {
						before = opts.Cache.Stats()
						stepOpts.ElabStats = rec
					}
					sess := measure.NewSession(d)
					got, next, stats, err := sess.Remeasure(prev, units, stepOpts)
					if err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
					for j, u := range units {
						sameResult(t, fmt.Sprintf("%s %s(acct=%t)", st.name, u.Top, u.UseAccounting), got[j], refs[i][j])
					}

					wantDirty := 0
					for _, u := range units {
						if st.dirtyTops[u.Top] {
							wantDirty++
						}
					}
					if stats.DirtyUnits != wantDirty || stats.CleanUnits != len(units)-wantDirty {
						t.Errorf("%s: %d dirty / %d clean units, want %d / %d",
							st.name, stats.DirtyUnits, stats.CleanUnits, wantDirty, len(units)-wantDirty)
					}
					wantCutoff := 0
					if st.neutral && !(st.dead && withCache) {
						wantCutoff = wantDirty
					}
					if stats.CutoffUnits != wantCutoff {
						t.Errorf("%s: %d units cut off, want %d", st.name, stats.CutoffUnits, wantCutoff)
					}
					if st.dead && withCache {
						_, hits, misses := rec.Snapshot()
						if n := sess.Stats().Synthesized; n != 0 || hits+misses != 0 {
							t.Errorf("%s: synthesized %d design points and ran %d search probes, want none", st.name, n, hits+misses)
						}
						after := opts.Cache.Stats()
						if m, p, h := after.Misses-before.Misses, after.Puts-before.Puts, after.Hits-before.Hits; m != 0 || p != 0 || h < int64(wantDirty) {
							t.Errorf("%s: %d cache misses, %d puts and %d hits, want none, none and at least %d", st.name, m, p, h, wantDirty)
						}
					}
					checkNames := func(kind string, got, want []string) {
						if fmt.Sprint(got) != fmt.Sprint(want) && !(len(got) == 0 && len(want) == 0) {
							t.Errorf("%s: %s modules %v, want %v", st.name, kind, got, want)
						}
					}
					checkNames("changed", stats.ChangedModules, st.wantChanged)
					checkNames("added", stats.AddedModules, st.wantAdded)
					checkNames("removed", stats.RemovedModules, st.wantRemoved)
					if stats.DirtyModules+stats.CleanModules != len(d.ModuleNames()) {
						t.Errorf("%s: module partition %d+%d does not cover %d modules",
							st.name, stats.DirtyModules, stats.CleanModules, len(d.ModuleNames()))
					}

					// Clean units must be served from the baseline, not
					// recomputed: pointer identity is the proof.
					for j, u := range units {
						if st.dirtyTops[u.Top] {
							continue
						}
						if want, ok := prev.Result(u); ok && got[j] != want {
							t.Errorf("%s: clean unit %s(acct=%t) was recomputed", st.name, u.Top, u.UseAccounting)
						}
					}
					prev = next
				}
				if withCache {
					for key := range measure.CacheRecords(t, opts.Cache.Dir()) {
						if cache.KindOf(key) == "depgraph" {
							t.Errorf("dependency graph written to the cache: %s", key)
						}
					}
				}
			})
		}
	}
}

// TestRemeasureWithoutBaselineOptions pins the options guard: a
// baseline recorded under different key-determining options (here
// another namespace) must not serve any unit, even with identical
// sources, nor lend any unit its metrics through the early cutoff.
func TestRemeasureWithoutBaselineOptions(t *testing.T) {
	src := designs.Sources()
	d, err := hdl.ParseDesign(src)
	if err != nil {
		t.Fatal(err)
	}
	units := []measure.Unit{{Top: "rat_standard", UseAccounting: true}}
	sess := measure.NewSession(d)
	res, err := sess.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := sess.Baseline(units, res, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}

	d2, err := hdl.ParseDesign(src)
	if err != nil {
		t.Fatal(err)
	}
	other := measure.Options{Concurrency: 1, Namespace: "other"}
	_, _, stats, err := measure.NewSession(d2).Remeasure(prev, units, other)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtyUnits != 1 || stats.CleanUnits != 0 {
		t.Errorf("options change served a stale unit: %+v", stats)
	}
	// The netlist is unchanged, but the cutoff table is pinned to the
	// baseline's options too.
	if stats.CutoffUnits != 0 {
		t.Errorf("options change cut off %d units from the stale baseline", stats.CutoffUnits)
	}
}

// corpusUnits is every corpus component measured with accounting.
func corpusUnits() []measure.Unit {
	var units []measure.Unit
	for _, c := range designs.All() {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: true})
	}
	return units
}

// baselineOf measures units on sources from scratch and records the
// baseline a remeasurement diffs against.
func baselineOf(t *testing.T, sources map[string]string, units []measure.Unit, opts measure.Options) *measure.Baseline {
	t.Helper()
	d, err := hdl.ParseDesign(sources)
	if err != nil {
		t.Fatal(err)
	}
	sess := measure.NewSession(d)
	res, err := sess.MeasureAll(units, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Baseline(units, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// remeasureOn remeasures units on sources against prev and checks the
// results against a from-scratch MeasureAll of the same sources.
func remeasureOn(t *testing.T, sources map[string]string, prev *measure.Baseline, units []measure.Unit, opts measure.Options) measure.RemeasureStats {
	t.Helper()
	d, err := hdl.ParseDesign(sources)
	if err != nil {
		t.Fatal(err)
	}
	got, _, stats, err := measure.NewSession(d).Remeasure(prev, units, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	for j, u := range units {
		sameResult(t, u.Top, got[j], ref[j])
	}
	return stats
}

// TestCutoffWritesFromScratchBytes pins that the early cutoff changes
// no persisted byte: the records a cut-off save writes are sig- and
// search- records byte-identical to those a fresh session's
// MeasureAll of the same sources writes into an empty cache, so a
// later process reads them warm.
func TestCutoffWritesFromScratchBytes(t *testing.T) {
	units := corpusUnits()
	base := designs.Sources()
	edited := neutralLib(t, neutralLocal(t, base))

	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := measure.Options{Concurrency: 1, Cache: c}
	prev := baselineOf(t, base, units, opts)
	before := measure.CacheRecords(t, c.Dir())
	stats := remeasureOn(t, edited, prev, units, opts)
	if stats.CutoffUnits == 0 || stats.CutoffUnits != stats.DirtyUnits {
		t.Fatalf("neutral save cut off %d of %d dirty units, want all", stats.CutoffUnits, stats.DirtyUnits)
	}

	fresh, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := hdl.ParseDesign(edited)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1, Cache: fresh}); err != nil {
		t.Fatal(err)
	}
	want := measure.CacheRecords(t, fresh.Dir())

	written := 0
	for key, b := range measure.CacheRecords(t, c.Dir()) {
		if _, ok := before[key]; ok {
			continue
		}
		written++
		if kind := cache.KindOf(key); kind != "sig" && kind != "search" {
			t.Errorf("cut-off save wrote a %q record %s", kind, key)
		} else if w, ok := want[key]; !ok {
			t.Errorf("cut-off save wrote %s, which a from-scratch run does not", key)
		} else if !bytes.Equal(b, w) {
			t.Errorf("%s differs from the from-scratch record", key)
		}
	}
	if written < stats.DirtyUnits {
		t.Errorf("cut-off save wrote %d records for %d dirty units", written, stats.DirtyUnits)
	}
}

// TestCutoffOffWhenVerifying pins that a verifying cache gets no early
// cutoff: verify mode exists to recompute. Here it recomputes the
// entries an earlier cut-off save wrote, runs the metric kernels for
// every dirty unit, and must find the entries equal.
func TestCutoffOffWhenVerifying(t *testing.T) {
	units := corpusUnits()
	base := designs.Sources()
	edited := neutralLib(t, base)

	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := measure.Options{Concurrency: 1, Cache: c}
	prev := baselineOf(t, base, units, opts)
	if st := remeasureOn(t, edited, prev, units, opts); st.CutoffUnits == 0 {
		t.Fatalf("neutral save without verify cut off no unit: %+v", st)
	}
	c.SetVerify(true)
	st := remeasureOn(t, edited, prev, units, opts)
	if st.DirtyUnits == 0 || st.CutoffUnits != 0 {
		t.Errorf("verifying save: %d dirty units, %d cut off; want some dirty, none cut off", st.DirtyUnits, st.CutoffUnits)
	}
	if cs := c.Stats(); cs.VerifyChecks == 0 || cs.VerifyMismatches != 0 {
		t.Errorf("verify mode: %d checks, %d mismatches; want some checks, no mismatch", cs.VerifyChecks, cs.VerifyMismatches)
	}
}

// dropModule returns src without the declaration of module name.
func dropModule(t *testing.T, src, name string) string {
	t.Helper()
	start := strings.Index(src, "module "+name+" ")
	if start < 0 {
		t.Fatalf("edit script stale: no module %s", name)
	}
	end := strings.Index(src[start:], "endmodule")
	if end < 0 {
		t.Fatalf("edit script stale: module %s has no endmodule", name)
	}
	return src[:start] + src[start+end+len("endmodule"):]
}

// TestRemeasureRemovedModule is the removed-module regression: deleting
// the shared library file, deleting one library module, or renaming a
// library module's declaration leaves the components that instantiate
// it dangling. Their own sources are unchanged, but the missing module
// drops out of their subtree, so they are dirty and Remeasure must fail
// exactly as a from-scratch MeasureAll of the edited sources does —
// never serve the baseline's now-stale results.
func TestRemeasureRemovedModule(t *testing.T) {
	units := corpusUnits()
	base := designs.Sources()
	full, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	// usersOf counts the units whose subtree contains a module for
	// which gone reports true: exactly the units the edit dirties.
	usersOf := func(gone func(string) bool) int {
		n := 0
		for _, u := range units {
			mods, err := full.TransitiveModules(u.Top)
			if err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(mods, gone) {
				n++
			}
		}
		return n
	}
	isRegfile := func(m string) bool { return m == "lib_regfile" }
	lib, err := hdl.ParseDesign(map[string]string{"lib.v": base["lib.v"]})
	if err != nil {
		t.Fatal(err)
	}

	noLib := maps.Clone(base)
	delete(noLib, "lib.v")
	noRegfile := maps.Clone(base)
	noRegfile["lib.v"] = dropModule(t, base["lib.v"], "lib_regfile")
	renamed := editSource(t, base, "lib.v", "module lib_regfile #", "module lib_regfile_v2 #")

	edits := []struct {
		name       string
		sources    map[string]string
		wantDirty  int
		wantRemove int
	}{
		{"delete-lib-file", noLib, usersOf(func(m string) bool { return strings.HasPrefix(m, "lib_") }), len(lib.ModuleNames())},
		{"delete-one-module", noRegfile, usersOf(isRegfile), 1},
		{"rename-declaration", renamed, usersOf(isRegfile), 1},
	}
	for _, workers := range []int{1, 8} {
		opts := measure.Options{Concurrency: workers}
		prev := baselineOf(t, base, units, opts)
		for _, e := range edits {
			t.Run(fmt.Sprintf("%s/workers=%d", e.name, workers), func(t *testing.T) {
				d, err := hdl.ParseDesign(e.sources)
				if err != nil {
					t.Fatal(err)
				}
				_, refErr := measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1})
				if refErr == nil {
					t.Fatal("edit script stale: from-scratch measurement succeeded")
				}
				got, next, stats, err := measure.NewSession(d).Remeasure(prev, units, opts)
				if err == nil {
					t.Fatalf("Remeasure served %d results (%d clean units) for a design from-scratch rejects with %q",
						len(got), stats.CleanUnits, refErr)
				}
				if err.Error() != refErr.Error() {
					t.Errorf("Remeasure error %q, from-scratch %q", err, refErr)
				}
				if got != nil || next != nil {
					t.Error("a failed Remeasure returned results or a successor baseline")
				}
				if e.wantDirty == 0 || stats.DirtyUnits != e.wantDirty {
					t.Errorf("%d dirty units, want %d", stats.DirtyUnits, e.wantDirty)
				}
				if len(stats.RemovedModules) != e.wantRemove {
					t.Errorf("removed modules %v, want %d", stats.RemovedModules, e.wantRemove)
				}
			})
		}
	}
}
