package hdl_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gencorpus"
	"repro/internal/hdl"
)

// renamedModule returns a copy of m whose own name and instantiated
// module names go through rename. m itself is shared and read-only, so
// every node on a path to a renamed name is copied.
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

// instances appends the instances items declare, in printer order (a
// generate-if's then branch before its else branch).
func instances(dst []*hdl.Instance, items []hdl.Item) []*hdl.Instance {
	for _, it := range items {
		switch v := it.(type) {
		case *hdl.Instance:
			dst = append(dst, v)
		case *hdl.GenFor:
			dst = instances(dst, v.Body)
		case *hdl.GenIf:
			dst = instances(instances(dst, v.Then), v.Else)
		}
	}
	return dst
}

// numbered returns top's transitive modules in the order the keys
// number them — breadth-first from top, in order of first instance in
// printer order — and, per module and header parameter, whether some
// instance site in the subtree leaves it unbound (binds it with no
// value or not at all): the live defaults below top.
func numbered(t *testing.T, d *hdl.Design, top string) ([]string, map[string][]bool) {
	t.Helper()
	order := []string{top}
	live := map[string][]bool{}
	for k := 0; k < len(order); k++ {
		m, err := d.Module(order[k])
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range instances(nil, m.Items) {
			child, err := d.Module(inst.ModuleName)
			if err != nil {
				continue // undeclared
			}
			if _, ok := live[child.Name]; !ok && child.Name != top {
				order = append(order, child.Name)
			}
			if live[child.Name] == nil {
				live[child.Name] = make([]bool, len(child.Params))
			}
			for i, p := range child.Params {
				bound := false
				for _, b := range inst.Params {
					bound = bound || (b.Name == p.Name && b.Value != nil)
				}
				live[child.Name][i] = live[child.Name][i] || !bound
			}
		}
	}
	return order, live
}

// canonicalText is the reference key StructuralHash (DesignPointHash
// when point is set) stands for: top's transitive modules, numbered,
// renamed bijectively to "#0", "#1", ..., with every dead default
// replaced by "#dead" and every dead declaration deleted, formatted
// and concatenated in number order. A default is dead when no instance
// site in the subtree leaves it unbound; top's own defaults are dead
// only under point. A declaration is dead by liveItems' rule. "#"
// starts no identifier, so no canonical name is a name the design
// uses; a name no module declares stays as written.
func canonicalText(t *testing.T, d *hdl.Design, top string, point bool) string {
	t.Helper()
	order, live := numbered(t, d, top)
	number := map[string]string{}
	for k, name := range order {
		number[name] = fmt.Sprintf("#%d", k)
	}
	canon := func(name string) string {
		if c, ok := number[name]; ok {
			return c
		}
		return name
	}
	var b strings.Builder
	for _, name := range order {
		m, err := d.Module(name)
		if err != nil {
			t.Fatal(err)
		}
		c := renamedModule(m, canon)
		c.Items = liveItems(m, c.Items)
		c.Params = make([]*hdl.ParamDecl, len(m.Params))
		for i, p := range m.Params {
			cp := *p
			if !isLive(live, top, name, i, point) {
				cp.Value = &hdl.Ident{Name: "#dead"}
			}
			c.Params[i] = &cp
		}
		b.WriteString(hdl.Format(c))
	}
	return b.String()
}

// liveItems returns items, m's module-level items (or a renamed copy
// of them), less every dead declaration of m: a wire or reg
// declaration with no range and no memory range, at module level,
// whose every name the lexer finds exactly once among the identifier
// tokens of m's formatted text with every module name replaced by "#".
func liveItems(m *hdl.Module, items []hdl.Item) []hdl.Item {
	counts := map[string]int{}
	lex := hdl.NewLexer("count.v", hdl.Format(renamedModule(m, func(string) string { return "#" })))
	for {
		tok, err := lex.Next()
		if err != nil || tok.Kind == hdl.TokEOF {
			break
		}
		if tok.Kind == hdl.TokIdent {
			counts[tok.Text]++
		}
	}
	var live []hdl.Item
	for _, it := range items {
		if d, ok := it.(*hdl.NetDecl); ok && (d.Kind == hdl.KindWire || d.Kind == hdl.KindReg) && d.Range == nil && d.ArrayRange == nil {
			dead := true
			for _, name := range d.Names {
				dead = dead && counts[name] == 1
			}
			if dead {
				continue
			}
		}
		live = append(live, it)
	}
	return live
}

// isLive is canonicalText's rule for the default of header parameter i
// of module mod in top's subtree, given numbered's live marks.
func isLive(live map[string][]bool, top, mod string, i int, point bool) bool {
	return (mod == top && !point) || (live[mod] != nil && live[mod][i])
}

// defaultLive reports whether the default of header parameter i of
// module mod enters top's StructuralHash (DesignPointHash when point
// is set), by the reference rule of canonicalText.
func defaultLive(t *testing.T, d *hdl.Design, top, mod string, i int, point bool) bool {
	t.Helper()
	order, live := numbered(t, d, top)
	return slices.Contains(order, mod) && isLive(live, top, mod, i, point)
}

func structuralHash(t *testing.T, d *hdl.Design, top string) string {
	t.Helper()
	h, err := d.StructuralHash(top)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func pointHash(t *testing.T, d *hdl.Design, top string) string {
	t.Helper()
	h, err := d.DesignPointHash(top)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// digest is pointHash when point is set, structuralHash otherwise.
func digest(t *testing.T, d *hdl.Design, top string, point bool) string {
	t.Helper()
	if point {
		return pointHash(t, d, top)
	}
	return structuralHash(t, d, top)
}

const structuralSrc = `
module leaf_a (input a, output y);
  assign y = ~a;
endmodule
module leaf_b (input a, output y);
  assign y = ~a;
endmodule
module leaf_c (input a, output y);
  assign y = a;
endmodule
module two_names (input a, output y, output z);
  leaf_a u1 (.a(a), .y(y));
  leaf_b u2 (.a(a), .y(z));
endmodule
module one_name (input a, output y, output z);
  leaf_a u1 (.a(a), .y(y));
  leaf_a u2 (.a(a), .y(z));
endmodule
module one_name_copy (input a, output y, output z);
  leaf_b u1 (.a(a), .y(y));
  leaf_b u2 (.a(a), .y(z));
endmodule
module edited (input a, output y, output z);
  leaf_c u1 (.a(a), .y(y));
  leaf_c u2 (.a(a), .y(z));
endmodule
module mid_a (input a, output y);
  leaf_a u (.a(a), .y(y));
endmodule
module mid_b (input a, output y);
  leaf_b u (.a(a), .y(y));
endmodule
module mid_a2 (input a, output y);
  leaf_a u (.a(a), .y(y));
endmodule
module shared_leaf (input a, output y, output z);
  mid_a m1 (.a(a), .y(y));
  mid_a2 m2 (.a(a), .y(z));
endmodule
module split_leaf (input a, output y, output z);
  mid_a m1 (.a(a), .y(y));
  mid_b m2 (.a(a), .y(z));
endmodule
module loop_a #(parameter N = 0) (input a, output y);
  generate if (N > 0) begin
    loop_a #(.N(N - 1)) u (.a(a), .y(y));
  end else begin
    assign y = a;
  end endgenerate
endmodule
module loop_b #(parameter N = 0) (input a, output y);
  generate if (N > 0) begin
    loop_b #(.N(N - 1)) u (.a(a), .y(y));
  end else begin
    assign y = a;
  end endgenerate
endmodule
module undeclared (input a, output y);
  generate if (0) begin
    missing u (.a(a), .y(y));
  end endgenerate
endmodule
module undeclared_other (input a, output y);
  generate if (0) begin
    absent u (.a(a), .y(y));
  end endgenerate
endmodule
`

// TestStructuralHashPlantedPairs pins which tops share a structural
// hash: modules that differ only in their names do, at any depth and
// through an instantiation cycle; a one-token edit does not; nor do two
// tops whose instances partition differently by module name, within
// one parent or across parents. A name no module declares is kept.
// Every verdict must agree with canonicalText.
func TestStructuralHashPlantedPairs(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"s.v": structuralSrc})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a, b  string
		equal bool
	}{
		{"leaf_a", "leaf_b", true},
		{"leaf_a", "leaf_c", false},
		{"one_name", "one_name_copy", true},
		{"one_name", "edited", false},
		{"one_name", "two_names", false},
		{"mid_a", "mid_b", true},
		{"shared_leaf", "split_leaf", false},
		{"loop_a", "loop_b", true},
		{"undeclared", "undeclared_other", false},
	} {
		ha, hb := structuralHash(t, d, c.a), structuralHash(t, d, c.b)
		if (ha == hb) != c.equal {
			t.Errorf("%s vs %s: equal hashes %t, want %t", c.a, c.b, ha == hb, c.equal)
		}
		if ta, tb := canonicalText(t, d, c.a, false), canonicalText(t, d, c.b, false); (ta == tb) != c.equal {
			t.Errorf("%s vs %s: equal canonical texts %t, want %t", c.a, c.b, ta == tb, c.equal)
		}
	}
	if _, err := d.StructuralHash("no_such_module"); err == nil {
		t.Error("StructuralHash of a missing module did not error")
	}
}

// TestStructuralHashFollowsEdits: an edit inside a top's subtree
// changes its structural hash, an edit outside it does not, and a
// design that adds a file forgets the memoized hashes.
func TestStructuralHashFollowsEdits(t *testing.T) {
	base, err := hdl.ParseDesign(map[string]string{"s.v": structuralSrc})
	if err != nil {
		t.Fatal(err)
	}
	inside, err := hdl.ParseDesign(map[string]string{"s.v": strings.Replace(structuralSrc,
		"module mid_a (input a, output y);\n  leaf_a u", "module mid_a (input a, output y);\n  leaf_c u", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if structuralHash(t, base, "shared_leaf") == structuralHash(t, inside, "shared_leaf") {
		t.Error("an edit inside shared_leaf's subtree kept its hash")
	}
	if structuralHash(t, base, "one_name") != structuralHash(t, inside, "one_name") {
		t.Error("an edit outside one_name's subtree changed its hash")
	}

	d, err := hdl.ParseDesign(map[string]string{"s.v": structuralSrc})
	if err != nil {
		t.Fatal(err)
	}
	before := structuralHash(t, d, "undeclared")
	f, err := hdl.Parse("m.v", "module missing (input a, output y);\n  assign y = a;\nendmodule\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddFile(f); err != nil {
		t.Fatal(err)
	}
	if structuralHash(t, d, "undeclared") == before {
		t.Error("declaring a previously undeclared module left the memoized hash in place")
	}
}

// defaultsSrc plants the dead-default pairs. lane_a and lane_b differ
// only in W's default. top_w4 and top_w6 differ only in their own
// default and bind the lane's at their one site; bound_* bind it at
// every site; open_* leave it unbound at their one site; branch_*
// bind it except at a site in a branch elaboration never takes.
// local_* differ in a localparam, param_* in a body parameter, and
// neither has an override.
const defaultsSrc = `
module lane_a #(parameter W = 20) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module lane_b #(parameter W = 8) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module top_w4 #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  lane_a #(.W(W)) u (.a(a), .y(y));
endmodule
module top_w6 #(parameter W = 6) (input [W-1:0] a, output [W-1:0] y);
  lane_b #(.W(W)) u (.a(a), .y(y));
endmodule
module bound_a (input [3:0] a, output [3:0] y, output [3:0] z);
  lane_a #(.W(4)) u (.a(a), .y(y));
  lane_a #(.W(4)) v (.a(a), .y(z));
endmodule
module bound_b (input [3:0] a, output [3:0] y, output [3:0] z);
  lane_b #(.W(4)) u (.a(a), .y(y));
  lane_b #(.W(4)) v (.a(a), .y(z));
endmodule
module open_a (input [3:0] a, output [3:0] y);
  lane_a u (.a(a), .y(y));
endmodule
module open_b (input [3:0] a, output [3:0] y);
  lane_b u (.a(a), .y(y));
endmodule
module branch_a (input [3:0] a, output [3:0] y);
  lane_a #(.W(4)) u (.a(a), .y(y));
  generate if (0) begin : never
    lane_a v (.a(a), .y());
  end endgenerate
endmodule
module branch_b (input [3:0] a, output [3:0] y);
  lane_b #(.W(4)) u (.a(a), .y(y));
  generate if (0) begin : never
    lane_b v (.a(a), .y());
  end endgenerate
endmodule
module local_a #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  localparam K = 1;
  assign y = a + K;
endmodule
module local_b #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  localparam K = 2;
  assign y = a + K;
endmodule
module param_a #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  parameter K = 1;
  assign y = a + K;
endmodule
module param_b #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  parameter K = 2;
  assign y = a + K;
endmodule
module local_top_a (input [3:0] a, output [3:0] y);
  local_a #(.W(4)) u (.a(a), .y(y));
endmodule
module local_top_b (input [3:0] a, output [3:0] y);
  local_b #(.W(4)) u (.a(a), .y(y));
endmodule
module param_top_a (input [3:0] a, output [3:0] y);
  param_a #(.W(4)) u (.a(a), .y(y));
endmodule
module param_top_b (input [3:0] a, output [3:0] y);
  param_b #(.W(4)) u (.a(a), .y(y));
endmodule
`

// TestDeadDefaultsPlantedPairs pins which defaults the two digests
// erase. A top's own default enters StructuralHash but not
// DesignPointHash; a child default every site binds enters neither; a
// child default one site leaves unbound enters both, also when that
// site sits in a generate branch elaboration never takes; a localparam
// or body parameter always enters both. Every verdict must agree with
// canonicalText.
func TestDeadDefaultsPlantedPairs(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"d.v": defaultsSrc})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		a, b                    string
		equalStruct, equalPoint bool
	}{
		{"lane_a", "lane_b", false, true},
		{"top_w4", "top_w6", false, true},
		{"bound_a", "bound_b", true, true},
		{"open_a", "open_b", false, false},
		{"branch_a", "branch_b", false, false},
		{"local_top_a", "local_top_b", false, false},
		{"param_top_a", "param_top_b", false, false},
	} {
		for _, point := range []bool{false, true} {
			want := c.equalStruct
			if point {
				want = c.equalPoint
			}
			ha, hb := digest(t, d, c.a, point), digest(t, d, c.b, point)
			if (ha == hb) != want {
				t.Errorf("point=%t: %s vs %s: equal digests %t, want %t", point, c.a, c.b, ha == hb, want)
			}
			if ta, tb := canonicalText(t, d, c.a, point), canonicalText(t, d, c.b, point); (ta == tb) != want {
				t.Errorf("point=%t: %s vs %s: equal canonical texts %t, want %t", point, c.a, c.b, ta == tb, want)
			}
		}
	}
	if _, err := d.DesignPointHash("no_such_module"); err == nil {
		t.Error("DesignPointHash of a missing module did not error")
	}
}

// deadDeclsSrc plants the dead-declaration pairs: each <case>_with is
// <case>_without plus the declaration lines the case names. The first
// cases add dead declarations — beside instances, after a parameter
// header, named like a module or like a based literal's digits. The
// rest add declarations some other text of the module names (an
// assign, a sensitivity list, a port binding, a port, another
// declaration) or that the rule leaves in the key (ranged, memory,
// inside a generate block, integer, genvar).
const deadDeclsSrc = `
module dd_leaf (input a, output y);
  assign y = ~a;
endmodule
module wire_without (input a, b, output y);
  assign y = a & b;
endmodule
module wire_with (input a, b, output y);
  wire spare;
  assign y = a & b;
endmodule
module reg_without (input a, b, output y);
  assign y = a & b;
endmodule
module reg_with (input a, b, output y);
  assign y = a & b;
  reg spare;
endmodule
module two_without (input a, b, output y);
  assign y = a | b;
endmodule
module two_with (input a, b, output y);
  wire spare_a;
  assign y = a | b;
  wire spare_b, spare_c;
endmodule
module inst_without (input a, output y);
  wire t;
  dd_leaf u (.a(a), .y(t));
  dd_leaf v (.a(t), .y(y));
endmodule
module inst_with (input a, output y);
  wire t;
  dd_leaf u (.a(a), .y(t));
  wire spare;
  dd_leaf v (.a(t), .y(y));
endmodule
module param_without #(parameter W = 2) (input [W-1:0] a, output y);
  assign y = ^a;
endmodule
module param_with #(parameter W = 2) (input [W-1:0] a, output y);
  reg spare;
  assign y = ^a;
endmodule
module modname_without (input a, output y);
  dd_leaf u (.a(a), .y(y));
endmodule
module modname_with (input a, output y);
  wire dd_leaf;
  dd_leaf u (.a(a), .y(y));
endmodule
module literal_without (input [3:0] a, output y);
  assign y = a == 4'd10;
endmodule
module literal_with (input [3:0] a, output y);
  wire d10;
  assign y = a == 4'd10;
endmodule
module ranged_without (input a, b, output y);
  assign y = a & b;
endmodule
module ranged_with (input a, b, output y);
  wire [1:0] spare;
  assign y = a & b;
endmodule
module memory_without (input a, b, output y);
  assign y = a & b;
endmodule
module memory_with (input a, b, output y);
  reg [1:0] spare [0:3];
  assign y = a & b;
endmodule
module assign_without (input a, b, output y);
  assign y = a & spare;
endmodule
module assign_with (input a, b, output y);
  wire spare;
  assign y = a & spare;
endmodule
module sens_without (input a, b, output reg y);
  always @(spare) y = a;
endmodule
module sens_with (input a, b, output reg y);
  wire spare;
  always @(spare) y = a;
endmodule
module binding_without (input a, output y);
  dd_leaf u (.a(spare), .y(y));
endmodule
module binding_with (input a, output y);
  wire spare;
  dd_leaf u (.a(spare), .y(y));
endmodule
module port_without (input a, spare, output y);
  assign y = a;
endmodule
module port_with (input a, spare, output y);
  wire spare;
  assign y = a;
endmodule
module twice_without (input a, output y);
  wire spare;
  assign y = a;
endmodule
module twice_with (input a, output y);
  wire spare;
  wire spare;
  assign y = a;
endmodule
module generate_without (input a, output y);
  assign y = a;
  generate if (1) begin : g
  end endgenerate
endmodule
module generate_with (input a, output y);
  assign y = a;
  generate if (1) begin : g
    wire spare;
  end endgenerate
endmodule
module integer_without (input a, output y);
  assign y = a;
endmodule
module integer_with (input a, output y);
  integer spare;
  assign y = a;
endmodule
module genvar_without (input a, output y);
  assign y = a;
endmodule
module genvar_with (input a, output y);
  genvar spare;
  assign y = a;
endmodule
`

// TestDeadDeclarationsPlantedPairs pins which declarations the two
// digests delete: a module-level wire or reg with no range whose names
// no other text of the module holds. Every verdict must agree with
// canonicalText. The dead-wire edit still moves ModuleHash, SubtreeHash
// and Fingerprint, which keep the full text.
func TestDeadDeclarationsPlantedPairs(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"dd.v": deadDeclsSrc})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		equal bool
	}{
		{"wire", true}, {"reg", true}, {"two", true}, {"inst", true},
		{"param", true}, {"modname", true}, {"literal", true},
		{"ranged", false}, {"memory", false}, {"assign", false},
		{"sens", false}, {"binding", false}, {"port", false},
		{"twice", false}, {"generate", false}, {"integer", false},
		{"genvar", false},
	} {
		a, b := c.name+"_without", c.name+"_with"
		for _, point := range []bool{false, true} {
			ha, hb := digest(t, d, a, point), digest(t, d, b, point)
			if (ha == hb) != c.equal {
				t.Errorf("point=%t: %s vs %s: equal digests %t, want %t", point, a, b, ha == hb, c.equal)
			}
			if ta, tb := canonicalText(t, d, a, point), canonicalText(t, d, b, point); (ta == tb) != c.equal {
				t.Errorf("point=%t: %s vs %s: equal canonical texts %t, want %t", point, a, b, ta == tb, c.equal)
			}
		}
	}

	const top = "module dd_top (input a, b, output y);\n  assign y = a & b;\nendmodule\n"
	before, err := hdl.ParseDesign(map[string]string{"t.v": top})
	if err != nil {
		t.Fatal(err)
	}
	after, err := hdl.ParseDesign(map[string]string{"t.v": strings.Replace(top, "  assign", "  wire spare;\n  assign", 1)})
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []bool{false, true} {
		if digest(t, before, "dd_top", point) != digest(t, after, "dd_top", point) {
			t.Errorf("point=%t: a dead wire moved the digest", point)
		}
	}
	mb, _ := before.ModuleHash("dd_top")
	ma, _ := after.ModuleHash("dd_top")
	sb, _ := before.SubtreeHash("dd_top")
	sa, _ := after.SubtreeHash("dd_top")
	if mb == ma || sb == sa || before.Fingerprint() == after.Fingerprint() {
		t.Errorf("a dead wire left ModuleHash moved %t, SubtreeHash moved %t, Fingerprint moved %t; want all moved",
			mb != ma, sb != sa, before.Fingerprint() != after.Fingerprint())
	}
}

// FuzzStructuralHash pins StructuralHash and DesignPointHash against
// their reference keys on arbitrary designs. Each digest of every
// module is invariant under a fuzzed bijective renaming of the
// design's modules; two modules' digests are equal exactly when their
// canonicalText is; inserting a fresh scalar wire into one module
// leaves every digest as it was, and then adding "assign <it> = 1'd0;"
// moves exactly the digests of the tops whose subtree holds the
// module; and rewriting one header default (to its value plus one)
// leaves a top's digest as it was when the default is dead in the
// top's subtree and changes it when the default is live. The corpus is
// seeded with a small generated corpus (each file alone, and all files
// as one design) and the planted pairs.
func FuzzStructuralHash(f *testing.F) {
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: 4, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var all strings.Builder
	for _, name := range corpus.FileNames() {
		f.Add(corpus.Files[name], uint64(len(name)))
		all.WriteString(corpus.Files[name])
	}
	f.Add(all.String(), uint64(1))
	f.Add(all.String(), uint64(0x310))
	f.Add(structuralSrc, uint64(2))
	f.Add(structuralSrc, uint64(7))
	f.Add(defaultsSrc, uint64(3))
	f.Add(defaultsSrc, uint64(0x504))
	f.Add(deadDeclsSrc, uint64(5))
	f.Add(deadDeclsSrc, uint64(0x2_0000_1b00_0000))

	f.Fuzz(func(t *testing.T, src string, perm uint64) {
		d, err := hdl.ParseDesign(map[string]string{"fuzz.v": src})
		if err != nil {
			return
		}
		names := d.ModuleNames()
		rename := fuzzRenaming(d, names, perm)
		if rename == nil {
			return
		}
		var renamed strings.Builder
		for _, name := range names {
			m, _ := d.Module(name)
			renamed.WriteString(hdl.Format(renamedModule(m, rename)))
		}
		d2, err := hdl.ParseDesign(map[string]string{"renamed.v": renamed.String()})
		if err != nil {
			t.Fatalf("renamed design does not parse: %v\n%s", err, renamed.String())
		}
		for _, point := range []bool{false, true} {
			hashes := make([]string, len(names))
			texts := make([]string, len(names))
			for i, name := range names {
				hashes[i] = digest(t, d, name, point)
				if h := digest(t, d2, rename(name), point); h != hashes[i] {
					t.Fatalf("point=%t: %s renamed to %s: digest %s, was %s", point, name, rename(name), h, hashes[i])
				}
				texts[i] = canonicalText(t, d, name, point)
			}
			for i := range names {
				for j := i + 1; j < len(names); j++ {
					if (hashes[i] == hashes[j]) != (texts[i] == texts[j]) {
						t.Fatalf("point=%t: %s and %s: equal digests %t, equal canonical texts %t\n%s\n%s",
							point, names[i], names[j], hashes[i] == hashes[j], texts[i] == texts[j], texts[i], texts[j])
					}
				}
			}
		}

		// Insert a fresh scalar wire into one module at one item, both
		// picked by perm: no digest moves. Drive it: every digest whose
		// subtree holds the module moves.
		const fresh = "fz_dead_wire"
		if len(names) > 0 && !strings.Contains(src, fresh) {
			mod := names[(perm>>24)%uint64(len(names))]
			m, _ := d.Module(mod)
			at := int((perm >> 32) % uint64(len(m.Items)+1))
			insert := func(extra ...hdl.Item) *hdl.Design {
				var b strings.Builder
				for _, name := range names {
					c, _ := d.Module(name)
					if name == mod {
						cp := *c
						cp.Items = slices.Concat(c.Items[:at], extra, c.Items[at:])
						c = &cp
					}
					b.WriteString(hdl.Format(c))
				}
				d, err := hdl.ParseDesign(map[string]string{"wired.v": b.String()})
				if err != nil {
					t.Fatalf("design with %s does not parse: %v\n%s", fresh, err, b.String())
				}
				return d
			}
			decl := &hdl.NetDecl{Kind: hdl.KindWire, Names: []string{fresh}}
			wired := insert(decl)
			driven := insert(decl, &hdl.ContAssign{LHS: &hdl.Ident{Name: fresh}, RHS: &hdl.Number{Width: 1}})
			for _, name := range names {
				order, _ := numbered(t, d, name)
				holds := slices.Contains(order, mod)
				for _, point := range []bool{false, true} {
					h := digest(t, d, name, point)
					if digest(t, wired, name, point) != h {
						t.Fatalf("point=%t: a dead wire in %s moved %s's digest", point, mod, name)
					}
					if moved := digest(t, driven, name, point) != h; moved != holds {
						t.Fatalf("point=%t: driving the wire in %s moved %s's digest %t; its subtree holds %s %t",
							point, mod, name, moved, mod, holds)
					}
				}
			}
		}

		// Rewrite one header default, picked by perm.
		var withParams []string
		for _, name := range names {
			if m, _ := d.Module(name); len(m.Params) > 0 {
				withParams = append(withParams, name)
			}
		}
		if len(withParams) == 0 {
			return
		}
		mod := withParams[(perm>>8)%uint64(len(withParams))]
		m, _ := d.Module(mod)
		pi := int((perm >> 16) % uint64(len(m.Params)))
		var rewritten strings.Builder
		for _, name := range names {
			c, _ := d.Module(name)
			if name == mod {
				cp := *c
				cp.Params = slices.Clone(c.Params)
				p := *c.Params[pi]
				p.Value = &hdl.Binary{Op: hdl.OpAdd, L: p.Value, R: &hdl.Number{Value: 1}}
				cp.Params[pi] = &p
				c = &cp
			}
			rewritten.WriteString(hdl.Format(c))
		}
		d3, err := hdl.ParseDesign(map[string]string{"rewritten.v": rewritten.String()})
		if err != nil {
			t.Fatalf("rewritten design does not parse: %v\n%s", err, rewritten.String())
		}
		for _, name := range names {
			for _, point := range []bool{false, true} {
				live := defaultLive(t, d, name, mod, pi, point)
				if moved := digest(t, d, name, point) != digest(t, d3, name, point); moved != live {
					t.Fatalf("point=%t: rewriting %s.%s's default moved %s's digest %t; the default is live there %t",
						point, mod, m.Params[pi].Name, name, moved, live)
				}
			}
		}
	})
}

// fuzzRenaming derives a bijective module renaming from perm: an odd
// perm permutes the design's own module names among themselves, an
// even one maps them to fresh names. It returns nil when a fresh name
// would collide with a name the design instantiates but does not
// declare, which would turn that reference into a declared one.
func fuzzRenaming(d *hdl.Design, names []string, perm uint64) func(string) string {
	shuffled := append([]string(nil), names...)
	state := perm
	for i := len(shuffled) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int((state >> 33) % uint64(i+1))
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	to := make(map[string]string, len(names))
	for i, name := range names {
		if perm%2 == 1 {
			to[name] = shuffled[i]
		} else {
			to[shuffled[i]] = fmt.Sprintf("ren_%d", i)
		}
	}
	if perm%2 == 0 {
		taken := map[string]bool{}
		for _, name := range names {
			m, _ := d.Module(name)
			for _, inst := range instances(nil, m.Items) {
				taken[inst.ModuleName] = true
			}
		}
		for _, fresh := range to {
			if taken[fresh] && !d.HasModule(fresh) {
				return nil
			}
		}
	}
	return func(name string) string {
		if r, ok := to[name]; ok {
			return r
		}
		return name
	}
}
