package hdl_test

import (
	"fmt"
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

// instanceNames appends the module names items instantiate, in printer
// order (a generate-if's then branch before its else branch).
func instanceNames(dst []string, items []hdl.Item) []string {
	for _, it := range items {
		switch v := it.(type) {
		case *hdl.Instance:
			dst = append(dst, v.ModuleName)
		case *hdl.GenFor:
			dst = instanceNames(dst, v.Body)
		case *hdl.GenIf:
			dst = instanceNames(instanceNames(dst, v.Then), v.Else)
		}
	}
	return dst
}

// canonicalText is the reference key StructuralHash stands for: top's
// transitive modules renamed bijectively to "#0", "#1", ... in order of
// first instance, breadth-first from top in printer order, then
// formatted and concatenated in that order. "#" starts no identifier,
// so no canonical name is a name the design uses; a name no module
// declares stays as written.
func canonicalText(t *testing.T, d *hdl.Design, top string) string {
	t.Helper()
	number := map[string]string{top: "#0"}
	order := []string{top}
	canon := func(name string) string {
		if c, ok := number[name]; ok {
			return c
		}
		return name
	}
	var b strings.Builder
	for k := 0; k < len(order); k++ {
		m, err := d.Module(order[k])
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range instanceNames(nil, m.Items) {
			if _, ok := number[name]; !ok && d.HasModule(name) {
				number[name] = fmt.Sprintf("#%d", len(order))
				order = append(order, name)
			}
		}
		b.WriteString(hdl.Format(renamedModule(m, canon)))
	}
	return b.String()
}

func structuralHash(t *testing.T, d *hdl.Design, top string) string {
	t.Helper()
	h, err := d.StructuralHash(top)
	if err != nil {
		t.Fatal(err)
	}
	return h
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
		if ta, tb := canonicalText(t, d, c.a), canonicalText(t, d, c.b); (ta == tb) != c.equal {
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

// FuzzStructuralHash pins StructuralHash against its reference key on
// arbitrary designs: the hash of every module is invariant under a
// fuzzed bijective renaming of the design's modules, and two modules
// hash equal exactly when their canonicalText is equal. The corpus is
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
	f.Add(structuralSrc, uint64(2))
	f.Add(structuralSrc, uint64(7))

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
		hashes := make([]string, len(names))
		texts := make([]string, len(names))
		for i, name := range names {
			hashes[i] = structuralHash(t, d, name)
			if h := structuralHash(t, d2, rename(name)); h != hashes[i] {
				t.Fatalf("%s renamed to %s: hash %s, was %s", name, rename(name), h, hashes[i])
			}
			texts[i] = canonicalText(t, d, name)
		}
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				if (hashes[i] == hashes[j]) != (texts[i] == texts[j]) {
					t.Fatalf("%s and %s: equal hashes %t, equal canonical texts %t\n%s\n%s",
						names[i], names[j], hashes[i] == hashes[j], texts[i] == texts[j], texts[i], texts[j])
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
			for _, child := range instanceNames(nil, m.Items) {
				taken[child] = true
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
