package elab

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/designs"
)

// compareInstances fails the test unless the two instance trees are
// structurally identical: same modules, paths, parameters, net and
// memory shapes, behavioral item counts, and children, recursively.
func compareInstances(t *testing.T, label string, a, b *Instance) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one tree is nil (a=%v b=%v)", label, a, b)
	}
	if a == nil {
		return
	}
	if a.Module.Name != b.Module.Name || a.Path != b.Path {
		t.Fatalf("%s: module/path mismatch: %s at %s vs %s at %s",
			label, a.Module.Name, a.Path, b.Module.Name, b.Path)
	}
	if len(a.Params) != len(b.Params) {
		t.Fatalf("%s: %s: param count %d vs %d", label, a.Path, len(a.Params), len(b.Params))
	}
	for k, v := range a.Params {
		if b.Params[k] != v {
			t.Fatalf("%s: %s: param %s = %d vs %d", label, a.Path, k, v, b.Params[k])
		}
	}
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("%s: %s: net count %d vs %d", label, a.Path, len(a.Nets), len(b.Nets))
	}
	for name, n := range a.Nets {
		o := b.Nets[name]
		if o == nil || o.Width != n.Width || o.LSB != n.LSB || o.Kind != n.Kind || o.IsPort != n.IsPort {
			t.Fatalf("%s: %s: net %s = %+v vs %+v", label, a.Path, name, n, o)
		}
	}
	if len(a.Mems) != len(b.Mems) {
		t.Fatalf("%s: %s: mem count %d vs %d", label, a.Path, len(a.Mems), len(b.Mems))
	}
	for name, m := range a.Mems {
		o := b.Mems[name]
		if o == nil || o.Width != m.Width || o.Depth != m.Depth || o.MinIdx != m.MinIdx {
			t.Fatalf("%s: %s: mem %s = %+v vs %+v", label, a.Path, name, m, o)
		}
	}
	if len(a.Assigns) != len(b.Assigns) || len(a.Alwayses) != len(b.Alwayses) {
		t.Fatalf("%s: %s: assigns %d/%d alwayses %d/%d", label, a.Path,
			len(a.Assigns), len(b.Assigns), len(a.Alwayses), len(b.Alwayses))
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("%s: %s: child count %d vs %d", label, a.Path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		ca, cb := a.Children[i], b.Children[i]
		if ca.Name != cb.Name || len(ca.Ports) != len(cb.Ports) {
			t.Fatalf("%s: %s: child %d = %s(%d ports) vs %s(%d ports)",
				label, a.Path, i, ca.Name, len(ca.Ports), cb.Name, len(cb.Ports))
		}
		compareInstances(t, label, ca.Inst, cb.Inst)
	}
}

// TestCacheCorpusBitIdentical pins the tentpole invariant corpus-wide:
// for every synthetic component, cached and report-only elaborations
// are bit-identical to plain uncached elaboration — same instance
// trees, same construct reports — and repeat lookups serve the same
// shared tree.
func TestCacheCorpusBitIdentical(t *testing.T) {
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		plain, plainRep, err := ElaborateOpts(d, c.Top, nil, Options{})
		if err != nil {
			t.Fatalf("%s: uncached: %v", c.Label(), err)
		}

		cacheObj := NewCache()
		cached, cachedRep, err := ElaborateOpts(d, c.Top, nil, Options{Cache: cacheObj})
		if err != nil {
			t.Fatalf("%s: cached: %v", c.Label(), err)
		}
		if cachedRep.String() != plainRep.String() {
			t.Errorf("%s: cached report differs:\n%s\nvs\n%s", c.Label(), cachedRep, plainRep)
		}
		compareInstances(t, c.Label()+" cached-cold", plain, cached)

		// Second call: root tree hit, shared pointer.
		again, againRep, err := ElaborateOpts(d, c.Top, nil, Options{Cache: cacheObj})
		if err != nil {
			t.Fatalf("%s: cached warm: %v", c.Label(), err)
		}
		if again != cached {
			t.Errorf("%s: warm elaboration did not reuse the memoized root tree", c.Label())
		}
		if againRep.String() != plainRep.String() {
			t.Errorf("%s: warm report differs", c.Label())
		}

		// Report-only: nil instance, identical report — on a fresh cache
		// and on the warm one.
		for _, probe := range []*Cache{NewCache(), cacheObj} {
			inst, rep, err := ElaborateOpts(d, c.Top, nil, Options{Cache: probe, ReportOnly: true})
			if err != nil {
				t.Fatalf("%s: report-only: %v", c.Label(), err)
			}
			if inst != nil {
				t.Errorf("%s: report-only returned a non-nil instance", c.Label())
			}
			if rep.String() != plainRep.String() {
				t.Errorf("%s: report-only report differs:\n%s\nvs\n%s", c.Label(), rep, plainRep)
			}
		}

		// Bare report-only (no cache) must match too.
		inst, rep, err := ElaborateOpts(d, c.Top, nil, Options{ReportOnly: true})
		if err != nil {
			t.Fatalf("%s: bare report-only: %v", c.Label(), err)
		}
		if inst != nil || rep.String() != plainRep.String() {
			t.Errorf("%s: bare report-only diverged", c.Label())
		}
	}
}

// probeDesign has a parameterized top over two submodules, so nearby
// parameter points share the submodule subtrees.
const probeDesign = `
module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module pair #(parameter W = 4, parameter N = 2) (input [W-1:0] a, output [W-1:0] y);
  wire [W-1:0] t;
  leaf #(.W(W)) u0 (.a(a), .y(t));
  leaf #(.W(W)) u1 (.a(t), .y(y));
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    wire [W-1:0] w;
    assign w = a ^ t;
  end endgenerate
endmodule`

// TestCacheProbePattern replays the accounting search's access
// pattern: report-only probes of nearby parameter points against one
// session cache, each compared against a fresh uncached elaboration.
// Points that change only N reuse the leaf subtrees elaborated under
// the reference W.
func TestCacheProbePattern(t *testing.T) {
	d := design(t, map[string]string{"m.v": probeDesign})
	sess := NewCache()
	if _, _, err := ElaborateOpts(d, "pair", nil, Options{Cache: sess}); err != nil {
		t.Fatal(err)
	}
	base := sess.Stats()

	for _, p := range []map[string]int64{
		{"W": 4, "N": 0}, {"W": 4, "N": 1}, {"W": 4, "N": 3},
		{"W": 2, "N": 2}, {"W": 4, "N": 2},
	} {
		label := fmt.Sprintf("%v", p)
		_, rep, err := ElaborateOpts(d, "pair", p, Options{Cache: sess, ReportOnly: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		_, plainRep, err := ElaborateOpts(d, "pair", p, Options{})
		if err != nil {
			t.Fatalf("%s: uncached: %v", label, err)
		}
		if rep.String() != plainRep.String() {
			t.Errorf("%s: probe report differs:\n%s\nvs\n%s", label, rep, plainRep)
		}
	}

	s := sess.Stats()
	if s.Hits <= base.Hits {
		t.Errorf("probes at unchanged-W points reused no subtrees: stats %+v", s)
	}
	// The final full build at the probed point reuses the reference's
	// leaf subtrees.
	inst, _, err := ElaborateOpts(d, "pair", map[string]int64{"W": 4, "N": 1}, Options{Cache: sess})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := ElaborateOpts(d, "pair", map[string]int64{"W": 4, "N": 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareInstances(t, "final build", plain, inst)
}

// TestCacheSharedConcurrent exercises one session cache from many
// goroutines mixing report-only probes and full builds (run under
// -race by scripts/ci.sh). Every result must match an uncached
// elaboration of the same point.
func TestCacheSharedConcurrent(t *testing.T) {
	d := design(t, map[string]string{"m.v": probeDesign})
	sess := NewCache()
	points := []map[string]int64{
		{"W": 2, "N": 0}, {"W": 2, "N": 2}, {"W": 4, "N": 1},
		{"W": 4, "N": 2}, {"W": 8, "N": 2}, {"W": 8, "N": 3},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*2*len(points))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, p := range points {
				reportOnly := (w+i)%2 == 0
				inst, rep, err := ElaborateOpts(d, "pair", p, Options{Cache: sess, ReportOnly: reportOnly})
				if err != nil {
					errs <- fmt.Errorf("worker %d point %v: %v", w, p, err)
					continue
				}
				if reportOnly && inst != nil {
					errs <- fmt.Errorf("worker %d point %v: report-only returned a tree", w, p)
				}
				_, plainRep, err := ElaborateOpts(d, "pair", p, Options{})
				if err != nil {
					errs <- err
					continue
				}
				if rep.String() != plainRep.String() {
					errs <- fmt.Errorf("worker %d point %v: report mismatch", w, p)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheRepeatedInstanceNamesStayDistinct pins the duplicate-path
// guard: a design that reuses one instance name gets distinct child
// trees, exactly as uncached elaboration builds them, even with a
// session cache attached.
func TestCacheRepeatedInstanceNamesStayDistinct(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module leaf (input a, output y);
  assign y = ~a;
endmodule
module m (input a, output y);
  wire t;
  leaf u (.a(a), .y(t));
  leaf u (.a(t), .y(y));
endmodule`})
	plain, _, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached, _, err := ElaborateOpts(d, "m", nil, Options{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	compareInstances(t, "duplicate names", plain, cached)
	if len(cached.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(cached.Children))
	}
	if cached.Children[0].Inst == cached.Children[1].Inst {
		t.Error("repeated instance name shares one cached tree; synthesis needs distinct instances per path")
	}
}

// TestCacheErrorParity pins that cached and report-only elaborations
// fail exactly like uncached ones — same error text — for both a
// parameter-dependent range error and a recursive instantiation.
func TestCacheErrorParity(t *testing.T) {
	cases := map[string]string{
		"range": `
module m #(parameter W = 1) (input [W-2:0] a, output y);
  assign y = a[0];
endmodule`,
		"recursion": `
module m (input a, output y);
  m u (.a(a), .y(y));
endmodule`,
	}
	for name, src := range cases {
		d := design(t, map[string]string{"m.v": src})
		_, _, plainErr := ElaborateOpts(d, "m", nil, Options{})
		if plainErr == nil {
			t.Fatalf("%s: uncached elaboration unexpectedly succeeded", name)
		}
		for _, reportOnly := range []bool{false, true} {
			_, _, err := ElaborateOpts(d, "m", nil, Options{Cache: NewCache(), ReportOnly: reportOnly})
			if err == nil || err.Error() != plainErr.Error() {
				t.Errorf("%s (reportOnly=%v): error %q, uncached %q", name, reportOnly, err, plainErr)
			}
		}
	}
}

// TestParamSignature pins the signature format both internal/synth's
// single-instance rule and the session cache key by.
func TestParamSignature(t *testing.T) {
	got := ParamSignature("alu", map[string]int64{"W": 32, "N": 4, "A": -1})
	want := "alu;A=-1;N=4;W=32"
	if got != want {
		t.Errorf("ParamSignature = %q, want %q", got, want)
	}
	if got := ParamSignature("alu", nil); got != "alu" {
		t.Errorf("ParamSignature(no params) = %q", got)
	}
}
