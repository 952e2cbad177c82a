package elab

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hdl"
)

func TestResolveParams(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module m #(parameter W = 8, parameter D = W * 2) (input [W-1:0] a);
endmodule`})
	mod, err := d.Module("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		overrides map[string]int64
		w, d      int64
	}{
		{"defaults", nil, 8, 16},
		{"override seen by a later default", map[string]int64{"W": 3}, 3, 6},
		{"both overridden", map[string]int64{"W": 3, "D": 5}, 3, 5},
	} {
		got, err := ResolveParams(mod, c.overrides)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != 2 || got["W"] != c.w || got["D"] != c.d {
			t.Errorf("%s: got %v, want W=%d D=%d", c.name, got, c.w, c.d)
		}
	}
	if _, err := ResolveParams(mod, map[string]int64{"X": 1}); err == nil || !strings.Contains(err.Error(), `module m has no parameter "X"`) {
		t.Errorf("unknown override: error %v", err)
	}
}

func TestWithVarsSharesMap(t *testing.T) {
	env := NewEnv(map[string]int64{"N": 4, "i": 9}).ChildVar("g[1].", "", 0)
	if env.WithVars(nil) != env {
		t.Error("an empty variable set must return the scope itself")
	}
	vars := map[string]int64{"i": 0}
	scope := env.WithVars(vars)
	if v, _ := scope.Lookup("i"); v != 0 {
		t.Errorf("i = %d, want the loop variable (0) to shadow the constant", v)
	}
	vars["i"] = 3
	if v, _ := scope.Lookup("i"); v != 3 {
		t.Errorf("i = %d after a write, want 3: the scope must share the map", v)
	}
	if v, _ := scope.Lookup("N"); v != 4 {
		t.Errorf("N = %d, want 4", v)
	}
	if scope.Prefix() != env.Prefix() || len(scope.Prefixes()) != len(env.Prefixes()) {
		t.Error("the scope must resolve nets as its parent does")
	}
}

func TestSelectChecks(t *testing.T) {
	n := &Net{Name: "g[0].v", Width: 4, LSB: 2} // v[5:2]
	if bit, err := BitOffset(n, "v", 5); err != nil || bit != 3 {
		t.Errorf("BitOffset(5) = %d, %v; want 3", bit, err)
	}
	if _, err := BitOffset(n, "v", 6); err == nil || err.Error() != `bit index 6 out of range for "v"` {
		t.Errorf("BitOffset(6): error %v", err)
	}
	if lo, hi, err := PartRange(n, "v", 4, 2); err != nil || lo != 0 || hi != 2 {
		t.Errorf("PartRange(4, 2) = %d, %d, %v; want 0, 2", lo, hi, err)
	}
	for _, r := range [][2]int64{{2, 3}, {6, 3}, {3, 1}} {
		_, _, err := PartRange(n, "v", r[0], r[1])
		want := fmt.Sprintf(`part select [%d:%d] out of range for "v"`, r[0], r[1])
		if err == nil || err.Error() != want {
			t.Errorf("PartRange(%d, %d): error %v, want %q", r[0], r[1], err, want)
		}
	}
	// The static check positions the same error and adds the width.
	d := design(t, map[string]string{"m.v": `
module m (input [3:0] a, output [1:0] y);
  assign y = a[5:4];
endmodule`})
	_, _, err := ElaborateOpts(d, "m", nil, Options{})
	if err == nil || !strings.Contains(err.Error(), `part select [5:4] out of range for "a" (width 4)`) {
		t.Errorf("static check: error %v", err)
	}
}

func TestWidthSeesLoopVariables(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module m (input [7:0] a, output reg [7:0] y);
  integer i;
  always @(*) for (i = 0; i < 4; i = i + 1) y[2*i+1:2*i] = a[2*i+1:2*i];
endmodule`})
	inst, _, err := ElaborateOpts(d, "m", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	env := inst.Alwayses[0].Env
	parse := func(src string) hdl.Expr {
		t.Helper()
		pd := design(t, map[string]string{"e.v": "module e (output x); assign x = " + src + "; endmodule"})
		mod, err := pd.Module("e")
		if err != nil {
			t.Fatal(err)
		}
		return mod.Items[0].(*hdl.ContAssign).RHS
	}
	vars := map[string]int64{"i": 2}
	for _, c := range []struct {
		src  string
		want int
	}{
		{"a[2*i+1:2*i]", 2},
		{"{i{a[i]}}", 2},
		{"a[i] + i", 32},
		{"{a[3:0], a[i]}", 5},
	} {
		if w, err := Width(inst, env, vars, parse(c.src)); err != nil || w != c.want {
			t.Errorf("Width(%s) = %d, %v; want %d", c.src, w, err, c.want)
		}
	}
	if _, err := Width(inst, env, nil, parse("a[2*i+1:2*i]")); err == nil || !strings.Contains(err.Error(), "part select bounds must be constant") {
		t.Errorf("bounds without the loop variable: error %v", err)
	}
	if _, err := Width(inst, env, map[string]int64{"i": 0}, parse("{i{a[0]}}")); err == nil || !strings.Contains(err.Error(), "replication count 0 must be >= 1") {
		t.Errorf("zero replication: error %v", err)
	}
}
