package designs

import (
	"testing"

	"repro/internal/equiv"
	"repro/internal/measure"
	"repro/internal/synth"
)

func TestAllComponentsParseElaborateSynthesize(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Label(), func(t *testing.T) {
			d, err := Design(c)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := synth.Synthesize(d, c.Top, nil)
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			st := res.Optimized.Stats()
			if st.Cells == 0 && st.RAMs == 0 {
				t.Errorf("component synthesized to nothing: %+v", st)
			}
		})
	}
}

func TestCorpusShape(t *testing.T) {
	comps := All()
	if len(comps) != 18 {
		t.Fatalf("components = %d, want 18", len(comps))
	}
	var total float64
	perProject := map[string]int{}
	for _, c := range comps {
		total += c.Effort
		perProject[c.Project]++
	}
	if total != 105.6 {
		t.Errorf("total effort = %v, want 105.6 (Table 2 / Table 4)", total)
	}
	want := map[string]int{"Leon3": 4, "PUMA": 5, "IVM": 7, "RAT": 2}
	for p, n := range want {
		if perProject[p] != n {
			t.Errorf("%s has %d components, want %d", p, perProject[p], n)
		}
	}
	if _, err := ByLabel("IVM-Rename"); err != nil {
		t.Error(err)
	}
	if _, err := ByLabel("NoSuch-Thing"); err == nil {
		t.Error("expected error for unknown label")
	}
}

func TestFullDesignParses(t *testing.T) {
	d, err := FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range All() {
		if !d.HasModule(c.Top) {
			t.Errorf("full design missing %s", c.Top)
		}
	}
}

func TestReplicationGradientAcrossProjects(t *testing.T) {
	// Section 5.3: IVM has many multiple instantiations, PUMA fewer,
	// Leon3 practically none. The accounting procedure must therefore
	// shrink IVM's synthesis metrics by a larger factor than Leon3's.
	shrink := func(project string) float64 {
		var with, without float64
		for _, c := range All() {
			if c.Project != project {
				continue
			}
			d, err := Design(c)
			if err != nil {
				t.Fatal(err)
			}
			w, err := measure.MeasureComponent(d, c.Top, true, measure.Options{})
			if err != nil {
				t.Fatalf("%s with accounting: %v", c.Label(), err)
			}
			wo, err := measure.MeasureComponent(d, c.Top, false, measure.Options{})
			if err != nil {
				t.Fatalf("%s without accounting: %v", c.Label(), err)
			}
			with += float64(w.Metrics.Cells)
			without += float64(wo.Metrics.Cells)
		}
		return without / with
	}
	leon3 := shrink("Leon3")
	ivm := shrink("IVM")
	if ivm <= leon3 {
		t.Errorf("IVM inflation (%.2f×) must exceed Leon3's (%.2f×)", ivm, leon3)
	}
}

func TestRepresentativeEquivalence(t *testing.T) {
	// Random-vector RTL↔gate equivalence on a representative subset
	// (one per project, kept small for test time; buses must fit the
	// interpreter's 64-bit nets).
	cases := []struct {
		label     string
		overrides map[string]int64
	}{
		{"RAT-Standard", nil},
		{"IVM-Issue", nil},
		{"PUMA-Memory", nil},
		{"Leon3-Cache", nil},
	}
	for _, tc := range cases {
		c, err := ByLabel(tc.label)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Design(c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := equiv.CheckEquivalence(d, c.Top, tc.overrides, 25, 99); err != nil {
			t.Errorf("%s: %v", tc.label, err)
		}
	}
}
