package depgraph_test

import (
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

func TestBuildRecordsModulesAndEdges(t *testing.T) {
	_, g := build(t, graphSrc)
	if len(g.Modules) != 4 {
		t.Fatalf("%d modules, want 4", len(g.Modules))
	}
	mid, ok := g.Module("mid")
	if !ok || len(mid.Children) != 1 || mid.Children[0] != "leaf" {
		t.Errorf("mid node wrong: %+v (ok=%t)", mid, ok)
	}
	topB, _ := g.Module("top_b")
	if len(topB.Children) != 0 {
		t.Errorf("top_b should have no children, got %v", topB.Children)
	}
	for i, m := range g.Modules {
		if i > 0 && g.Modules[i-1].Name >= m.Name {
			t.Errorf("modules not sorted at %q", m.Name)
		}
		for _, c := range m.Children {
			if _, ok := g.Module(c); !ok {
				t.Errorf("module %q instantiates undeclared %q", m.Name, c)
			}
		}
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

func TestAddUnitReplaces(t *testing.T) {
	_, g := build(t, graphSrc)
	g.AddUnit(depgraph.Unit{Top: "top_a", UseAccounting: true, NetlistHash: "h1"})
	g.AddUnit(depgraph.Unit{Top: "top_a", UseAccounting: false, NetlistHash: "h2"})
	g.AddUnit(depgraph.Unit{Top: "top_a", UseAccounting: true, NetlistHash: "h3"})
	if len(g.Units) != 2 {
		t.Fatalf("%d units, want 2", len(g.Units))
	}
	u, ok := g.Unit("top_a", true)
	if !ok || u.NetlistHash != "h3" {
		t.Errorf("unit not replaced: %+v ok=%t", u, ok)
	}
}
