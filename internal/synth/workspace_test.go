package synth_test

import (
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/synth"
)

// TestWorkspaceLoweringBitIdentical pins workspace reuse at the synth
// layer: for every corpus component, in every template/dedup mode,
// lowering through one workspace — reused dirty across all components,
// the way a pool worker holds it — produces raw and optimized netlists
// whose hashes, net counts, port names and counters match a lowering
// on a fresh workspace exactly. Hash equality here is the structural
// bit-identity the measurement cache depends on.
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
			if fresh.Deduped != reused.Deduped || fresh.Stamped != reused.Stamped {
				t.Errorf("%s %+v: reused-workspace stats (dedup %d, stamp %d) != fresh (%d, %d)",
					c.Label(), mode, reused.Deduped, reused.Stamped, fresh.Deduped, fresh.Stamped)
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
