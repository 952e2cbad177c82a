package measure_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// renamedModule returns a copy of m whose own name and instantiated
// module names go through rename; m is shared and is not touched.
func renamedModule(m *hdl.Module, rename func(string) string) *hdl.Module {
	c := *m
	c.Name = rename(m.Name)
	c.Items = renamedItems(m.Items, rename)
	return &c
}

func renamedItems(items []hdl.Item, rename func(string) string) []hdl.Item {
	out := make([]hdl.Item, len(items))
	for i, it := range items {
		switch v := it.(type) {
		case *hdl.Instance:
			c := *v
			c.ModuleName = rename(v.ModuleName)
			out[i] = &c
		case *hdl.GenFor:
			c := *v
			c.Body = renamedItems(v.Body, rename)
			out[i] = &c
		case *hdl.GenIf:
			c := *v
			c.Then = renamedItems(v.Then, rename)
			c.Else = renamedItems(v.Else, rename)
			out[i] = &c
		default:
			out[i] = it
		}
	}
	return out
}

// renamedDesign re-parses d with every module renamed bijectively: the
// i-th name in sorted order becomes "c<n-1-i>", so the renaming also
// reverses the names' sort order. Each file keeps its name and module
// order.
func renamedDesign(t *testing.T, d *hdl.Design) (*hdl.Design, map[string]string) {
	t.Helper()
	names := d.ModuleNames()
	to := make(map[string]string, len(names))
	for i, name := range names {
		to[name] = fmt.Sprintf("c%03d", len(names)-1-i)
	}
	rename := func(name string) string { return to[name] }
	sources := map[string]string{}
	for _, f := range d.Files {
		var b strings.Builder
		for _, m := range f.Modules {
			b.WriteString(hdl.Format(renamedModule(m, rename)))
		}
		sources[f.File] = b.String()
	}
	r, err := hdl.ParseDesign(sources)
	if err != nil {
		t.Fatal(err)
	}
	return r, to
}

// paperUnits is every paper component in both accounting modes, with
// its top module's name mapped through rename.
func paperUnits(rename func(string) string) []measure.Unit {
	var units []measure.Unit
	for _, acct := range []bool{true, false} {
		for _, c := range designs.All() {
			units = append(units, measure.Unit{Top: rename(c.Top), UseAccounting: acct})
		}
	}
	return units
}

// TestRenamedDesignMeasuresIdentically: renaming every module of the
// paper corpus changes no measured value. Each unit of the renamed
// design, in both accounting modes, has every result field of the
// original unit (netlist hash and search counters included), and its
// UniqueModules are the original's mapped through the renaming. On a
// cache the original's sweep warmed, every search of the renamed sweep
// is answered by a "search" record and every flight by a "sig" record
// the original wrote: the memo, flight and disk keys name no module.
// A search the disk answered ran no search, so those results carry no
// search counters; everything else is equal.
func TestRenamedDesignMeasuresIdentically(t *testing.T) {
	orig, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	ren, to := renamedDesign(t, orig)
	units := paperUnits(func(s string) string { return s })
	renUnits := paperUnits(func(s string) string { return to[s] })

	ch, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := measure.NewSession(orig).MeasureAll(units, measure.Options{Cache: ch})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := measure.NewSession(ren).MeasureAll(renUnits, measure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := ch.KindStats()
	warmSess := measure.NewSession(ren)
	warm, err := warmSess.MeasureAll(renUnits, measure.Options{Cache: ch})
	if err != nil {
		t.Fatal(err)
	}

	for _, got := range []struct {
		label    string
		results  []*measure.ComponentResult
		searched bool
	}{{"renamed", fresh, true}, {"renamed, warm records", warm, false}} {
		for i, u := range units {
			w := *want[i]
			if !got.searched {
				w.ElabCacheHits, w.ElabCacheMisses = 0, 0
			}
			var mapped []string
			for _, name := range w.UniqueModules {
				mapped = append(mapped, to[name])
			}
			slices.Sort(mapped)
			w.UniqueModules = mapped
			if !reflect.DeepEqual(got.results[i], &w) {
				t.Errorf("%s %s(acct=%t): %+v, want %+v", got.label, u.Top, u.UseAccounting, got.results[i], &w)
			}
		}
	}

	st := warmSess.Stats()
	ks := ch.KindStats()
	sig, search := ks["sig"], ks["search"]
	// The paper corpus's 36 units own 35 flights and 18 searches; on a
	// warm cache every one is a record hit and none synthesizes.
	owned := int64(st.Planned - st.Shared)
	if hits, misses := sig.Hits-before["sig"].Hits, sig.Misses-before["sig"].Misses; owned != 35 || hits != owned || misses != 0 || st.Synthesized != 0 {
		t.Errorf("renamed sweep on a warm cache: %d flights owned, %d answered by sig records, %d sig misses, %d synthesized; want 35 owned, all answered, none synthesized",
			owned, hits, misses, st.Synthesized)
	}
	if hits, misses := search.Hits-before["search"].Hits, search.Misses-before["search"].Misses; hits != 18 || misses != 0 {
		t.Errorf("renamed sweep on a warm cache: %d searches answered by search records, %d missed; want 18 answered", hits, misses)
	}
}

// partitionSrc plants the name-partition hazard. leaf_a and leaf_b
// have identical bodies, so p_two and p_one differ only in whether
// their two instances name one module or two, and lowering dedups
// sibling instances by module name. t_two and t_one nest them so the
// dedup flag is part of both keys. t_one_copy is t_one renamed through
// and through; t_tok differs from t_one in one token of its leaf.
const partitionSrc = `
module leaf_a (input [3:0] a, output [3:0] y);
  assign y = a + 4'd1;
endmodule
module leaf_b (input [3:0] a, output [3:0] y);
  assign y = a + 4'd1;
endmodule
module leaf_c (input [3:0] a, output [3:0] y);
  assign y = a + 4'd2;
endmodule
module leaf_d (input [3:0] a, output [3:0] y);
  assign y = a + 4'd1;
endmodule
module p_two (input [3:0] a, output [3:0] y, output [3:0] z);
  leaf_a u1 (.a(a), .y(y));
  leaf_b u2 (.a(a), .y(z));
endmodule
module p_one (input [3:0] a, output [3:0] y, output [3:0] z);
  leaf_a u1 (.a(a), .y(y));
  leaf_a u2 (.a(a), .y(z));
endmodule
module p_one_copy (input [3:0] a, output [3:0] y, output [3:0] z);
  leaf_d u1 (.a(a), .y(y));
  leaf_d u2 (.a(a), .y(z));
endmodule
module p_tok (input [3:0] a, output [3:0] y, output [3:0] z);
  leaf_c u1 (.a(a), .y(y));
  leaf_c u2 (.a(a), .y(z));
endmodule
module t_two (input [3:0] a, b, output [3:0] y, output [3:0] z);
  p_two x (.a(a), .y(y), .z());
  p_two w (.a(b), .y(), .z(z));
endmodule
module t_one (input [3:0] a, b, output [3:0] y, output [3:0] z);
  p_one x (.a(a), .y(y), .z());
  p_one w (.a(b), .y(), .z(z));
endmodule
module t_one_copy (input [3:0] a, b, output [3:0] y, output [3:0] z);
  p_one_copy x (.a(a), .y(y), .z());
  p_one_copy w (.a(b), .y(), .z(z));
endmodule
module t_tok (input [3:0] a, b, output [3:0] y, output [3:0] z);
  p_tok x (.a(a), .y(y), .z());
  p_tok w (.a(b), .y(), .z(z));
endmodule
`

// TestNamePartitionPlantedPairs measures the planted tops in one batch
// and each alone. Every unit equals itself alone; the renamed copy
// shares t_one's flights and equals it but for UniqueModules; t_two's
// dedup count differs from t_one's, so structural keys must keep the
// two apart; the one-token edit shares nothing.
func TestNamePartitionPlantedPairs(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"p.v": partitionSrc})
	if err != nil {
		t.Fatal(err)
	}
	var units []measure.Unit
	for _, acct := range []bool{true, false} {
		for _, top := range []string{"t_two", "t_one", "t_one_copy", "t_tok"} {
			units = append(units, measure.Unit{Top: top, UseAccounting: acct})
		}
	}
	sess := measure.NewSession(d)
	got, err := sess.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	byUnit := map[measure.Unit]*measure.ComponentResult{}
	for i, u := range units {
		alone, err := measure.MeasureComponent(d, u.Top, u.UseAccounting, measure.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], alone) {
			t.Errorf("%s(acct=%t): batch %+v, alone %+v", u.Top, u.UseAccounting, got[i], alone)
		}
		byUnit[u] = got[i]
	}
	for _, acct := range []bool{true, false} {
		one, cp := *byUnit[measure.Unit{Top: "t_one", UseAccounting: acct}], *byUnit[measure.Unit{Top: "t_one_copy", UseAccounting: acct}]
		one.UniqueModules, cp.UniqueModules = nil, nil
		if !reflect.DeepEqual(one, cp) {
			t.Errorf("acct=%t: renamed copy %+v, original %+v", acct, cp, one)
		}
		tok := byUnit[measure.Unit{Top: "t_tok", UseAccounting: acct}]
		if tok.NetlistHash == one.NetlistHash {
			t.Errorf("acct=%t: the one-token edit kept the netlist hash", acct)
		}
	}
	two, one := byUnit[measure.Unit{Top: "t_two", UseAccounting: true}], byUnit[measure.Unit{Top: "t_one", UseAccounting: true}]
	if two.DedupedInstances == one.DedupedInstances {
		t.Errorf("t_two and t_one both dedup %d instances; the planted pair no longer differs by name partition", one.DedupedInstances)
	}
	// Every top can stamp duplicate siblings, so each takes one flight
	// per accounting mode; the renamed copy takes none of its own.
	if st := sess.Stats(); st.Synthesized != 6 || st.Shared != 2 {
		t.Errorf("stats %+v: want 6 flights synthesized (3 structures × 2 modes) and the copy's 2 units shared", st)
	}
}

// TestStructuralSharingMatchesAlone: on generated corpora, where most
// components are renamed copies of others, every unit of a sweep at 1
// and 8 workers is DeepEqual to the unit measured alone in a fresh
// session (search counters included), though the sweep searches and
// synthesizes each structure once (gates_test.go counts that).
func TestStructuralSharingMatchesAlone(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		corpus, err := gencorpus.Generate(gencorpus.Config{Components: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		design, err := corpus.Design(0)
		if err != nil {
			t.Fatal(err)
		}
		var units []measure.Unit
		structures := map[string]bool{}
		for _, acct := range []bool{true, false} {
			for _, c := range corpus.Components {
				units = append(units, measure.Unit{Top: c.Top, UseAccounting: acct})
				st, err := design.StructuralHash(c.Top)
				if err != nil {
					t.Fatal(err)
				}
				structures[st] = true
			}
		}
		if len(structures) >= len(corpus.Components) {
			t.Fatalf("seed %d: %d structures for %d components; the corpus has no renamed copy", seed, len(structures), len(corpus.Components))
		}
		alone := make([]*measure.ComponentResult, len(units))
		for i, u := range units {
			if alone[i], err = measure.MeasureComponent(design, u.Top, u.UseAccounting, measure.Options{Concurrency: 1}); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 8} {
			sess := measure.NewSession(design)
			got, err := sess.MeasureAll(units, measure.Options{Concurrency: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range units {
				if !reflect.DeepEqual(got[i], alone[i]) {
					t.Errorf("seed %d workers=%d %s(acct=%t): sweep %+v, alone %+v", seed, workers, u.Top, u.UseAccounting, got[i], alone[i])
				}
			}
		}
	}
}

// defaultsSrc plants copies that differ in parameter defaults. lane_a
// and lane_b differ in W's default, which top_a and top_b, otherwise
// renamed copies, bind at their only site. top_c is top_a with its own
// default changed. With lane_a's default dead, top_a and top_b share
// one structural hash; top_c shares only their design-point digest.
const defaultsSrc = `
module lane_a #(parameter W = 20) (input [W-1:0] a, b, output [W-1:0] y);
  genvar i;
  generate for (i = 0; i < W; i = i + 1) begin : bit
    assign y[i] = a[i] ^ b[W-1-i];
  end endgenerate
endmodule
module lane_b #(parameter W = 12) (input [W-1:0] a, b, output [W-1:0] y);
  genvar i;
  generate for (i = 0; i < W; i = i + 1) begin : bit
    assign y[i] = a[i] ^ b[W-1-i];
  end endgenerate
endmodule
module top_a #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] y);
  lane_a #(.W(W)) u (.a(a), .b(b), .y(y));
endmodule
module top_b #(parameter W = 8) (input [W-1:0] a, b, output [W-1:0] y);
  lane_b #(.W(W)) u (.a(a), .b(b), .y(y));
endmodule
module top_c #(parameter W = 6) (input [W-1:0] a, b, output [W-1:0] y);
  lane_a #(.W(W)) u (.a(a), .b(b), .y(y));
endmodule
`

// TestDeadDefaultsShareFlightsAndSearches measures the planted tops in
// one batch and each alone. Every unit equals itself alone. top_b
// shares top_a's search and both its flights. top_c runs its own
// search, which starts from its own default, but lands where top_a's
// does, so its accounting unit shares top_a's flight; at its defaults
// it is a design point of its own.
func TestDeadDefaultsShareFlightsAndSearches(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"d.v": defaultsSrc})
	if err != nil {
		t.Fatal(err)
	}
	var units []measure.Unit
	for _, acct := range []bool{true, false} {
		for _, top := range []string{"top_a", "top_b", "top_c"} {
			units = append(units, measure.Unit{Top: top, UseAccounting: acct})
		}
	}
	rec := &elab.StatsRecorder{}
	sess := measure.NewSession(d)
	got, err := sess.MeasureAll(units, measure.Options{Concurrency: 1, ElabStats: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		alone, err := measure.MeasureComponent(d, u.Top, u.UseAccounting, measure.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], alone) {
			t.Errorf("%s(acct=%t): batch %+v, alone %+v", u.Top, u.UseAccounting, got[i], alone)
		}
	}
	a, c := got[0], got[2]
	if !maps.Equal(a.MinimizedParams, c.MinimizedParams) || a.NetlistHash != c.NetlistHash {
		t.Fatalf("top_a minimized to %v, top_c to %v: the planted searches no longer land together", a.MinimizedParams, c.MinimizedParams)
	}
	// Three design points: the minimized one, W=8 and W=6.
	if st := sess.Stats(); st.Synthesized != 3 || st.Shared != 3 {
		t.Errorf("stats %+v: want 3 flights synthesized and 3 units shared", st)
	}
	// Two searches, top_a's and top_c's.
	_, hits, misses := rec.Snapshot()
	if wantHits, wantMisses := a.ElabCacheHits+c.ElabCacheHits, a.ElabCacheMisses+c.ElabCacheMisses; hits != wantHits || misses != wantMisses {
		t.Errorf("searches ran %d/%d probe hits/misses; top_a's and top_c's run %d/%d", hits, misses, wantHits, wantMisses)
	}
}

// deadDeclSrc plants tops that differ only in an unused declaration.
// dd_b is dd_a plus a scalar wire no text reads, which leaves every
// key as it was. dd_c is dd_a plus an unused [W-1:0] wire, which stays
// in the keys: it fails elaboration at W = 0, so its search lands
// higher.
const deadDeclSrc = `
module dd_a #(parameter W = 4) (input [W:0] a, b, output [W:0] y);
  assign y = a ^ b;
endmodule
module dd_b #(parameter W = 4) (input [W:0] a, b, output [W:0] y);
  wire spare;
  assign y = a ^ b;
endmodule
module dd_c #(parameter W = 4) (input [W:0] a, b, output [W:0] y);
  wire [W-1:0] spare;
  assign y = a ^ b;
endmodule
`

// TestDeadDeclarationSharesSearchAndFlight measures the planted tops in
// one batch and each alone. Every unit equals itself alone, LoC
// included: dd_b's counts its own declaration line. dd_b shares dd_a's
// search and both its flights. dd_c's search lands at W = 1, not at
// dd_a's W = 0, and both its units are design points of their own.
func TestDeadDeclarationSharesSearchAndFlight(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"dd.v": deadDeclSrc})
	if err != nil {
		t.Fatal(err)
	}
	var units []measure.Unit
	for _, acct := range []bool{true, false} {
		for _, top := range []string{"dd_a", "dd_b", "dd_c"} {
			units = append(units, measure.Unit{Top: top, UseAccounting: acct})
		}
	}
	rec := &elab.StatsRecorder{}
	sess := measure.NewSession(d)
	got, err := sess.MeasureAll(units, measure.Options{Concurrency: 1, ElabStats: rec})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		alone, err := measure.MeasureComponent(d, u.Top, u.UseAccounting, measure.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], alone) {
			t.Errorf("%s(acct=%t): batch %+v, alone %+v", u.Top, u.UseAccounting, got[i], alone)
		}
	}
	a, b, c := got[0], got[1], got[2]
	if a.MinimizedParams["W"] != 0 || c.MinimizedParams["W"] != 1 {
		t.Fatalf("dd_a minimized to %v, dd_c to %v; the planted searches land at W=0 and W=1", a.MinimizedParams, c.MinimizedParams)
	}
	for _, r := range []*measure.ComponentResult{b, got[4]} {
		loc, _, err := d.SourceCounts("dd_b")
		if err != nil {
			t.Fatal(err)
		}
		if r.Metrics.LoC != loc || loc != a.Metrics.LoC+1 {
			t.Errorf("dd_b LoC %d, parse-time count %d, dd_a's %d; want the count, one more than dd_a's", r.Metrics.LoC, loc, a.Metrics.LoC)
		}
	}
	// Four design points: dd_a's at W=0 and W=4, dd_c's at W=1 and W=4.
	if st := sess.Stats(); st.Synthesized != 4 || st.Shared != 2 {
		t.Errorf("stats %+v: want 4 flights synthesized and 2 units shared", st)
	}
	// Two searches, dd_a's and dd_c's.
	_, hits, misses := rec.Snapshot()
	if wantHits, wantMisses := a.ElabCacheHits+c.ElabCacheHits, a.ElabCacheMisses+c.ElabCacheMisses; hits != wantHits || misses != wantMisses {
		t.Errorf("searches ran %d/%d probe hits/misses; dd_a's and dd_c's run %d/%d", hits, misses, wantHits, wantMisses)
	}
}
