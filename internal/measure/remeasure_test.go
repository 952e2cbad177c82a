package measure_test

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
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

// TestRemeasureMatchesFromScratch is the golden test of incremental
// remeasurement: a scripted series of edits — a component-local edit,
// a shared-library edit, an unreferenced module addition, and a full
// revert — remeasured incrementally against the rolling baseline must
// be bit-identical to measuring each edited design from scratch, at
// workers 1 and 8, with the disk cache off and with one cache carried
// cold-to-warm across the whole series. The per-step dirty cone is
// pinned exactly: only units whose transitive subtree changed are
// re-measured.
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
				if withCache {
					if g, ok := measure.FetchGraph(opts.Cache, d.Fingerprint(), opts); !ok {
						t.Error("baseline graph not persisted")
					} else if len(g.Units) != len(units) {
						t.Errorf("persisted graph has %d units, want %d", len(g.Units), len(units))
					}
				}

				for i, st := range steps {
					d, err := hdl.ParseDesign(st.sources)
					if err != nil {
						t.Fatal(err)
					}
					sess := measure.NewSession(d)
					got, next, stats, err := sess.Remeasure(prev, units, opts)
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
			})
		}
	}
}

// TestRemeasureWithoutBaselineOptions pins the options guard: a
// baseline recorded under different key-determining options (here
// another namespace) must not serve any unit, even with identical
// sources.
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
}
