package synth_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestWorkspaceLoweringBitIdentical pins workspace reuse at the synth
// layer: for every corpus component, in every template/dedup mode,
// lowering through one workspace — reused dirty across all components,
// the way a pool worker holds it — produces raw and optimized netlists
// whose hashes, net counts, port names and counters match a lowering
// on a fresh workspace exactly. Hash equality here is the structural
// bit-identity the measurement cache depends on. Only Stamped may
// differ: a reused workspace keeps its templates, so an instance a
// fresh one lowers directly may be replayed instead.
func TestWorkspaceLoweringBitIdentical(t *testing.T) {
	ws := synth.NewWorkspace()
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		for _, mode := range []synth.LowerOptions{
			{},
			{DedupInstances: true},
			{DisableTemplates: true},
		} {
			run := func(ws *synth.Workspace) *synth.Result {
				inst, report, err := elab.ElaborateOpts(d, c.Top, nil, elab.Options{})
				if err != nil {
					t.Fatalf("%s: %v", c.Label(), err)
				}
				opts := mode
				opts.Workspace = ws
				res, err := synth.SynthesizeInstance(inst, report, opts)
				if err != nil {
					t.Fatalf("%s: %v", c.Label(), err)
				}
				return res
			}
			fresh := run(synth.NewWorkspace())
			reused := run(ws)
			if fresh.Raw.Hash() != reused.Raw.Hash() {
				t.Errorf("%s %+v: reused-workspace raw hash diverges from a fresh workspace's", c.Label(), mode)
			}
			if fresh.Optimized.Hash() != reused.Optimized.Hash() {
				t.Errorf("%s %+v: reused-workspace optimized hash diverges from a fresh workspace's", c.Label(), mode)
			}
			if fresh.Raw.NumNets() != reused.Raw.NumNets() {
				t.Errorf("%s %+v: reused-workspace raw nets %d, fresh %d",
					c.Label(), mode, reused.Raw.NumNets(), fresh.Raw.NumNets())
			}
			if fresh.Deduped != reused.Deduped {
				t.Errorf("%s %+v: reused-workspace Deduped %d != fresh %d",
					c.Label(), mode, reused.Deduped, fresh.Deduped)
			}
			if reused.Stamped < fresh.Stamped {
				t.Errorf("%s %+v: reused-workspace Stamped %d < fresh %d",
					c.Label(), mode, reused.Stamped, fresh.Stamped)
			}
			if stats := fresh.OptStats; stats != reused.OptStats {
				t.Errorf("%s %+v: reused-workspace optimizer stats %+v != fresh %+v",
					c.Label(), mode, reused.OptStats, stats)
			}
			for i := range fresh.Raw.Inputs {
				if fresh.Raw.Inputs[i].Name != reused.Raw.Inputs[i].Name {
					t.Fatalf("%s: input %d name %q != %q", c.Label(), i,
						reused.Raw.Inputs[i].Name, fresh.Raw.Inputs[i].Name)
				}
			}
		}
	}
}

// lowerHashes lowers inst with opts and returns the raw and optimized
// netlist hashes and the lowering's stats.
func lowerHashes(t *testing.T, inst *elab.Instance, opts synth.LowerOptions) (raw, opt string, ls synth.LowerStats) {
	t.Helper()
	nl, ls, err := synth.LowerOpts(inst, opts)
	if err != nil {
		t.Fatalf("%s: %v", inst.Path, err)
	}
	raw = nl.Hash()
	o, _, err := netlist.OptimizeWS(nl, nil)
	if err != nil {
		t.Fatalf("%s: %v", inst.Path, err)
	}
	return raw, o.Hash(), ls
}

// TestTemplatesAcrossLoweringsBitIdentical is the differential test of
// templates that outlive a lowering: one workspace, never Reset, lowers
// the 18 paper components of one design in sequence — at their
// declared and at their minimized parameters, with the single-instance
// rule off and on, interleaved so templates recorded under one mode
// meet units of the other — and every unit must hash exactly like a
// direct lowering with templates disabled.
func TestTemplatesAcrossLoweringsBitIdentical(t *testing.T) {
	d, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	ws := synth.NewWorkspace()
	stamped, freshStamped := 0, 0
	for _, c := range designs.All() {
		minimized, err := measure.MinimizeParamsN(d, c.Top, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		for _, params := range []map[string]int64{nil, minimized} {
			inst, _, err := elab.ElaborateOpts(d, c.Top, params, elab.Options{})
			if err != nil {
				t.Fatalf("%s: %v", c.Label(), err)
			}
			for _, dedup := range []bool{false, true} {
				wantRaw, wantOpt, want := lowerHashes(t, inst, synth.LowerOptions{DedupInstances: dedup, DisableTemplates: true})
				_, _, fresh := lowerHashes(t, inst, synth.LowerOptions{DedupInstances: dedup})
				gotRaw, gotOpt, got := lowerHashes(t, inst, synth.LowerOptions{DedupInstances: dedup, Workspace: ws})
				if gotRaw != wantRaw || gotOpt != wantOpt {
					t.Errorf("%s params=%v dedup=%t: shared-workspace netlist diverges from direct lowering", c.Label(), params, dedup)
				}
				if got.Deduped != want.Deduped {
					t.Errorf("%s params=%v dedup=%t: Deduped %d, direct lowering %d", c.Label(), params, dedup, got.Deduped, want.Deduped)
				}
				stamped += got.Stamped
				freshStamped += fresh.Stamped
			}
		}
	}
	// The components share library modules, so a workspace that keeps
	// its templates must replay more than per-lowering tables do.
	if stamped <= freshStamped {
		t.Errorf("shared workspace stamped %d instances, fresh workspaces %d: templates did not outlive a lowering", stamped, freshStamped)
	}
	t.Logf("stamped %d instances on one workspace, %d on fresh ones", stamped, freshStamped)
}

// TestTemplatesDroppedWhenModuleRebound lowers two designs on one
// workspace without a Reset in between. Both define a module "leaf"
// with the same ports and parameters but different bodies, so a
// template recorded from the first would stamp the wrong gates into
// the second; the workspace must notice the name now means another
// module and lower the second design like a fresh workspace does.
func TestTemplatesDroppedWhenModuleRebound(t *testing.T) {
	top := `
module top (input [3:0] a, b, output [3:0] y0, y1);
  leaf u0 (.a(a), .b(b), .y(y0));
  leaf u1 (.a(b), .b(a), .y(y1));
endmodule
`
	leaves := []string{
		"module leaf (input [3:0] a, b, output [3:0] y);\n  assign y = a ^ b;\nendmodule\n",
		"module leaf (input [3:0] a, b, output [3:0] y);\n  assign y = a & ~b;\nendmodule\n",
	}
	ws := synth.NewWorkspace()
	for i, leaf := range leaves {
		d, err := hdl.ParseDesign(map[string]string{"top.v": top, "leaf.v": leaf})
		if err != nil {
			t.Fatal(err)
		}
		inst, _, err := elab.ElaborateOpts(d, "top", nil, elab.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantRaw, wantOpt, _ := lowerHashes(t, inst, synth.LowerOptions{DisableTemplates: true})
		gotRaw, gotOpt, got := lowerHashes(t, inst, synth.LowerOptions{Workspace: ws})
		if gotRaw != wantRaw || gotOpt != wantOpt {
			t.Errorf("design %d: netlist lowered after another design's templates diverges from direct lowering", i)
		}
		if got.Stamped != 1 {
			t.Errorf("design %d: Stamped %d, want 1 (u1 replays u0)", i, got.Stamped)
		}
	}
}

// TestTemplateKeyCarriesDedupFlag lowers one design on one workspace
// without, then with, the single-instance rule. The module "mid" holds
// two identical leaves, so its body lowers differently under the rule;
// a template recorded without it must not stamp "mid" with it.
func TestTemplateKeyCarriesDedupFlag(t *testing.T) {
	src := `
module leaf (input [3:0] a, b, output [3:0] y);
  assign y = a + b;
endmodule
module mid (input [3:0] a, b, output [3:0] y0, y1);
  leaf l0 (.a(a), .b(b), .y(y0));
  leaf l1 (.a(b), .b(a), .y(y1));
endmodule
module top (input [3:0] a, b, c, output [3:0] y0, y1, y2, y3);
  mid m0 (.a(a), .b(b), .y0(y0), .y1(y1));
  mid m1 (.a(c), .b(b), .y0(y2), .y1(y3));
endmodule
`
	d, err := hdl.ParseDesign(map[string]string{"top.v": src})
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := elab.ElaborateOpts(d, "top", nil, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := synth.NewWorkspace()
	for _, dedup := range []bool{false, true} {
		wantRaw, wantOpt, want := lowerHashes(t, inst, synth.LowerOptions{DedupInstances: dedup, DisableTemplates: true})
		gotRaw, gotOpt, got := lowerHashes(t, inst, synth.LowerOptions{DedupInstances: dedup, Workspace: ws})
		if gotRaw != wantRaw || gotOpt != wantOpt {
			t.Errorf("dedup=%t: netlist diverges from direct lowering", dedup)
		}
		if got.Deduped != want.Deduped {
			t.Errorf("dedup=%t: Deduped %d, direct lowering %d", dedup, got.Deduped, want.Deduped)
		}
	}
}
