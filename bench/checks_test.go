package main

import (
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/paper"
	"repro/internal/serve"
)

// TestEditKindsPredictDirtyUnits applies every kind of edit to the
// paper corpus and checks that each parses and re-measures exactly the
// units its prediction names, ending bit-identical to a from-scratch
// measurement.
func TestEditKindsPredictDirtyUnits(t *testing.T) {
	units := paperUnits()
	ed := newEditor()
	d, err := hdl.ParseDesign(ed.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	deps, err := dependents(d, units)
	if err != nil {
		t.Fatal(err)
	}
	if deps[libEditModule] < 2 || deps[ratModule] != 1 {
		t.Fatalf("dependents: %s has %d users, %s %d", libEditModule, deps[libEditModule], ratModule, deps[ratModule])
	}
	sess := measure.NewSession(d)
	res, err := sess.MeasureAll(units, measure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := sess.Baseline(units, res, measure.Options{})
	if err != nil {
		t.Fatal(err)
	}
	script := []edit{
		{kind: editLocalNeutral, comp: 0},
		{kind: editLocalNeutral, comp: 0}, // replaces the first probe
		{kind: editLocalNeutral, comp: 16},
		{kind: editLibNeutral},
		{kind: editLibNeutral},
		{kind: editLocalChange},
		{kind: editLocalChange}, // back to the original read port
		{kind: editNoop},
	}
	for i, e := range script {
		before := sourceBytes(ed.sources)
		module, err := ed.apply(e)
		if err != nil {
			t.Fatalf("edit %d (%s): %v", i, editKindNames[e.kind], err)
		}
		if i == 1 && sourceBytes(ed.sources) != before {
			t.Errorf("a replacement probe changed the source size from %d to %d bytes", before, sourceBytes(ed.sources))
		}
		d, err := hdl.ParseDesign(ed.snapshot())
		if err != nil {
			t.Fatalf("edit %d (%s) does not parse: %v", i, editKindNames[e.kind], err)
		}
		res, next, rs, err := measure.NewSession(d).Remeasure(base, units, measure.Options{})
		if err != nil {
			t.Fatalf("edit %d (%s): %v", i, editKindNames[e.kind], err)
		}
		want := 0
		if module != "" {
			want = deps[module]
		}
		problems := dirtyCheck(editKindNames[e.kind], rs, want)
		if i == len(script)-1 {
			ref, err := fromScratch(ed.snapshot(), units)
			if err != nil {
				t.Fatal(err)
			}
			problems = append(problems, resultCheck(editKindNames[e.kind], serve.ResultsOf(unitRequests(units), res), ref)...)
		}
		for _, p := range problems {
			t.Errorf("edit %d: %s", i, p)
		}
		base = next
	}
}

func TestPaperCheckCatchesPerturbation(t *testing.T) {
	out, err := paperOp(nil, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if c := out.check(out.rendered); len(c) > 0 {
		t.Fatalf("unperturbed reproduction fails: %v", c)
	}
	perturb := []struct {
		name string
		do   func(o *paperOutput) func()
	}{
		{"Table 4 sigma_eps", func(o *paperOutput) func() {
			v := o.table4.MaxAbsDiff
			o.table4.MaxAbsDiff = table4Tolerance + 0.001
			return func() { o.table4.MaxAbsDiff = v }
		}},
		{"AIC", func(o *paperOutput) func() {
			v := o.aicbic.DEE1AIC
			o.aicbic.DEE1AIC += 0.2
			return func() { o.aicbic.DEE1AIC = v }
		}},
		{"Figure 6 Stmts inflation", func(o *paperOutput) func() {
			v := o.fig6.Without["Stmts"]
			o.fig6.Without["Stmts"] = v * (1 + 1e-12)
			return func() { o.fig6.Without["Stmts"] = v }
		}},
		{"rendering", func(o *paperOutput) func() {
			v := o.rendered
			o.rendered = strings.Replace(v, "0", "1", 1)
			return func() { o.rendered = v }
		}},
	}
	ref := out.rendered
	for _, p := range perturb {
		undo := p.do(out)
		if c := out.check(ref); len(c) == 0 {
			t.Errorf("perturbed %s passes the check", p.name)
		}
		undo()
	}
}

func TestCorpusCheckCatchesPerturbation(t *testing.T) {
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: smokeCorpusN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := paper.CorpusScaleConfig(corpus.Config, paper.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := corpusOp(nil, -1, -1, corpus, corpusUnits(corpus), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := out.check(ref); len(c) > 0 {
		t.Fatalf("unperturbed sweep fails: %v", c)
	}
	out.with["DEE1"] *= 1 + 1e-12
	if c := out.check(ref); len(c) == 0 {
		t.Error("a changed sigma_eps passes the check")
	}
	out.with["DEE1"] = ref.With["DEE1"]
	out.cache.Hits = 1
	if c := out.check(ref); len(c) == 0 {
		t.Error("a cold sweep with a cache hit passes the check")
	}
}

func TestSaveCheckCatchesWrongDirtyCount(t *testing.T) {
	rs := measure.RemeasureStats{DirtyUnits: 2}
	if c := dirtyCheck("save", rs, 2); len(c) > 0 {
		t.Fatalf("matching dirty count fails: %v", c)
	}
	if c := dirtyCheck("save", rs, 1); len(c) == 0 {
		t.Error("a wrong dirty count passes the check")
	}
}

func TestSaveCheckCatchesChangedResult(t *testing.T) {
	ref, err := fromScratch(designs.Sources(), paperUnits())
	if err != nil {
		t.Fatal(err)
	}
	got := append([]serve.UnitResult(nil), ref...)
	if c := resultCheck("save", got, ref); len(c) > 0 {
		t.Fatalf("identical results fail: %v", c)
	}
	got[5].Metrics.FanInLC++
	if c := resultCheck("save", got, ref); len(c) == 0 {
		t.Error("a changed result passes the check")
	}
}

// TestServedVerifyCatchesMismatch checks tenant A's responses against
// the unmodified corpus and tenant B's against the sources rebuilt for
// its request: one edit into tenant B's stream.
func TestServedVerifyCatchesMismatch(t *testing.T) {
	units := paperUnits()
	refA, err := fromScratch(designs.Sources(), units)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := sourcesAt(newEditStream(1, tenantBStream).take(1), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	refB, err := fromScratch(srcs[0], units)
	if err != nil {
		t.Fatal(err)
	}
	for _, perturb := range []bool{false, true} {
		gotA := append([]serve.UnitResult(nil), refA...)
		gotB := append([]serve.UnitResult(nil), refB...)
		if perturb {
			gotA[3].Metrics.Cells++
			gotB[7].Metrics.Stmts++
		}
		r := &run{seed: 1}
		g := &loadgen{r: r, results: []*stepStats{{
			calls:   []call{{id: 0, results: gotA}, {id: 1, remeasure: true, results: gotB}},
			checked: map[int]int{0: -1, 1: 0},
		}}}
		g.verify(refA)
		if want := map[bool]int{false: 0, true: 2}[perturb]; r.failed != want || r.attempted != 2 {
			t.Errorf("perturbed=%t: %d of %d checks failed, want %d of 2", perturb, r.failed, r.attempted, want)
		}
	}
}
