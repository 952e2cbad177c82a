package depgraph_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/hdl"
)

const graphSrc = `
module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule

module mid (input [3:0] a, output [3:0] y);
  leaf u0 (.a(a), .y(y));
endmodule

module top_a (input [3:0] a, output [3:0] y);
  mid u0 (.a(a), .y(y));
endmodule

module top_b (input [3:0] a, output [3:0] y);
  assign y = a;
endmodule
`

func parse(t testing.TB, src string) *hdl.Design {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"a.v": src})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func build(t testing.TB, src string) (*hdl.Design, *depgraph.Graph) {
	t.Helper()
	d := parse(t, src)
	g, err := depgraph.Build(d, "opts-v1")
	if err != nil {
		t.Fatal(err)
	}
	return d, g
}

// TestBuildRecordsModulesAndEdges pins what a graph records per
// module: its own source hash and its subtree hash, both as the design
// computes them, in name order.
func TestBuildRecordsModulesAndEdges(t *testing.T) {
	d, g := build(t, graphSrc)
	if len(g.Modules) != 4 {
		t.Fatalf("%d modules, want 4", len(g.Modules))
	}
	for i, m := range g.Modules {
		if i > 0 && g.Modules[i-1].Name >= m.Name {
			t.Errorf("modules not sorted at %q", m.Name)
		}
		own, err := d.ModuleHash(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := d.SubtreeHash(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Hash != own || m.Subtree != sub {
			t.Errorf("%s: recorded hashes %q/%q, design has %q/%q", m.Name, m.Hash, m.Subtree, own, sub)
		}
		if got, ok := g.Module(m.Name); !ok || got != m {
			t.Errorf("Module(%q) = %+v, %t", m.Name, got, ok)
		}
	}
	// A leaf's subtree is itself and a parent's is not: the two hashes
	// differ exactly for modules that instantiate something.
	leaf, _ := g.Module("leaf")
	mid, _ := g.Module("mid")
	if leaf.Subtree == mid.Subtree || mid.Subtree == mid.Hash {
		t.Errorf("subtree hashes do not separate leaf and mid: %+v %+v", leaf, mid)
	}
}

// TestDiffDirtyCone pins the cone semantics: an edit to leaf dirties
// leaf, mid, and top_a (the transitive instantiators) and leaves top_b
// clean; an edit to top_b dirties only top_b.
func TestDiffDirtyCone(t *testing.T) {
	_, g := build(t, graphSrc)

	leafEdit := parse(t, strings.Replace(graphSrc, "assign y = ~a;", "assign y = a;", 1))
	d, err := depgraph.Diff(g, leafEdit)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Changed) != 1 || d.Changed[0] != "leaf" {
		t.Errorf("Changed = %v, want [leaf]", d.Changed)
	}
	if len(d.Added)+len(d.Removed) != 0 {
		t.Errorf("Added/Removed = %v/%v, want empty", d.Added, d.Removed)
	}
	for _, name := range []string{"leaf", "mid", "top_a"} {
		if !d.Dirty(name) {
			t.Errorf("%s should be dirty", name)
		}
	}
	if d.Dirty("top_b") {
		t.Error("top_b should be clean")
	}
	if d.DirtyModules != 3 || d.CleanModules != 1 {
		t.Errorf("cone counts %d/%d, want 3/1", d.DirtyModules, d.CleanModules)
	}

	topEdit := parse(t, strings.Replace(graphSrc, "assign y = a;", "assign y = ~a;", 1))
	d2, err := depgraph.Diff(g, topEdit)
	if err != nil {
		t.Fatal(err)
	}
	if d2.DirtyModules != 1 || !d2.Dirty("top_b") || d2.Dirty("top_a") {
		t.Errorf("top_b edit cone wrong: %+v", d2)
	}

	// Identical re-parse: nothing dirty.
	d3, err := depgraph.Diff(g, parse(t, graphSrc))
	if err != nil {
		t.Fatal(err)
	}
	if d3.DirtyModules != 0 || len(d3.Changed) != 0 {
		t.Errorf("noop diff found dirt: %+v", d3)
	}
	// Unknown modules report dirty (no recorded counterpart).
	if !d3.Dirty("no_such_module") {
		t.Error("unknown module should report dirty")
	}
}

func TestDiffAddedRemoved(t *testing.T) {
	_, g := build(t, graphSrc)
	grown := parse(t, graphSrc+`
module extra (input a, output y);
  assign y = a;
endmodule
`)
	d, err := depgraph.Diff(g, grown)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || d.Added[0] != "extra" {
		t.Errorf("Added = %v, want [extra]", d.Added)
	}
	if !d.Dirty("extra") || d.Dirty("top_a") {
		t.Error("added module dirty / existing tops clean expected")
	}

	shrunk := parse(t, strings.ReplaceAll(graphSrc, `module top_b (input [3:0] a, output [3:0] y);
  assign y = a;
endmodule`, ""))
	d2, err := depgraph.Diff(g, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Removed) != 1 || d2.Removed[0] != "top_b" {
		t.Errorf("Removed = %v, want [top_b]", d2.Removed)
	}
}

// TestDiffRemovedLeafDirtiesParents is the removed-module case: when a
// leaf is deleted (or its declaration renamed), every former
// instantiator is dirty, because the leaf dropped out of its subtree —
// even though the instantiators' own sources did not change and the
// dangling instance no longer names a declared module.
func TestDiffRemovedLeafDirtiesParents(t *testing.T) {
	_, g := build(t, graphSrc)
	const leafDecl = `module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule`
	for _, tc := range []struct {
		name, src string
		wantAdded []string
	}{
		{"delete", strings.Replace(graphSrc, leafDecl, "", 1), nil},
		{"rename", strings.Replace(graphSrc, "module leaf ", "module leaf2 ", 1), []string{"leaf2"}},
	} {
		d, err := depgraph.Diff(g, parse(t, tc.src))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(d.Removed) != "[leaf]" || len(d.Changed) != 0 || fmt.Sprint(d.Added) != fmt.Sprint(tc.wantAdded) {
			t.Errorf("%s: changed/added/removed = %v/%v/%v", tc.name, d.Changed, d.Added, d.Removed)
		}
		for _, name := range []string{"mid", "top_a"} {
			if !d.Dirty(name) {
				t.Errorf("%s: former parent %s should be dirty", tc.name, name)
			}
		}
		if d.Dirty("top_b") {
			t.Errorf("%s: top_b should be clean", tc.name)
		}
		if want := 2 + len(tc.wantAdded); d.DirtyModules != want || d.CleanModules != 1 {
			t.Errorf("%s: %d dirty / %d clean modules, want %d / 1", tc.name, d.DirtyModules, d.CleanModules, want)
		}
	}
}
