package measure_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// astSnapshot renders everything a measurement reads from parsed
// files: each module's formatted declaration, position, and the
// source counts Parse took.
func astSnapshot(ds ...*hdl.Design) map[*hdl.SourceFile]string {
	out := map[*hdl.SourceFile]string{}
	for _, d := range ds {
		for _, f := range d.Files {
			var b strings.Builder
			for _, m := range f.Modules {
				loc, stmts, _ := d.SourceCounts(m.Name)
				fmt.Fprintf(&b, "%s\n%s\nloc=%d stmts=%d\n", m.Pos, hdl.Format(m), loc, stmts)
			}
			out[f] = b.String()
		}
	}
	return out
}

// TestSharedASTsReadOnly: parsed files are shared between designs (and
// so between sessions and daemon tenants), so measuring must never
// write to them. Two designs that share every file but one are measured
// in full and then incrementally, through a disk cache, in parallel;
// every shared and unshared file must render byte-identically before
// and after.
func TestSharedASTsReadOnly(t *testing.T) {
	base := designs.Sources()
	edited := editSource(t, base, "RAT-Standard.v",
		"= table_mem[raddr[AW-1:0]];", "= ~table_mem[raddr[AW-1:0]];")
	dA, err := hdl.ParseDesign(base)
	if err != nil {
		t.Fatal(err)
	}
	dB, err := hdl.ParseDesign(edited)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i, f := range dB.Files {
		if f == dA.Files[i] {
			shared++
		}
	}
	if shared != len(dA.Files)-1 {
		t.Fatalf("designs share %d of %d files, want all but the edited one", shared, len(dA.Files))
	}
	before := astSnapshot(dA, dB)

	var units []measure.Unit
	for _, c := range designs.All() {
		units = append(units, measure.Unit{Top: c.Top, UseAccounting: true}, measure.Unit{Top: c.Top})
	}
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := measure.Options{Cache: c, Concurrency: 4}
	sess := measure.NewSession(dA)
	res, err := sess.MeasureAll(units, opts)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := sess.Baseline(units, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, rs, err := measure.NewSession(dB).Remeasure(prev, units, opts); err != nil {
		t.Fatal(err)
	} else if rs.DirtyUnits == 0 {
		t.Fatal("the edit re-measured nothing")
	}

	after := astSnapshot(dA, dB)
	for f, was := range before {
		if after[f] != was {
			t.Errorf("%s: parsed file changed while being measured", f.File)
		}
	}
}
