package gencorpus

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/elab"
	"repro/internal/synth"
)

// TestGenerateDeterministic: same config ⇒ byte-identical corpus,
// repeated in-process and across GOMAXPROCS settings.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Components: 25, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fp := a.Fingerprint()

	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		b, err := Generate(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Fingerprint(); got != fp {
			t.Fatalf("GOMAXPROCS=%d: fingerprint %s != %s", procs, got, fp)
		}
		if len(b.Files) != len(a.Files) {
			t.Fatalf("GOMAXPROCS=%d: %d files != %d", procs, len(b.Files), len(a.Files))
		}
		for name, src := range a.Files {
			if b.Files[name] != src {
				t.Fatalf("GOMAXPROCS=%d: file %s differs", procs, name)
			}
		}
		for i, c := range a.Components {
			if b.Components[i] != c {
				t.Fatalf("GOMAXPROCS=%d: component %d differs: %+v vs %+v", procs, i, b.Components[i], c)
			}
		}
	}
}

// TestGenerateDistinctSeeds: distinct seeds ⇒ distinct corpora.
func TestGenerateDistinctSeeds(t *testing.T) {
	seen := map[string]uint64{}
	for seed := uint64(0); seed < 10; seed++ {
		c, err := Generate(Config{Components: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("seeds %d and %d generated identical corpora (%s)", prev, seed, fp)
		}
		seen[fp] = seed
	}
}

// TestGeneratedDesignsSynthesize: every component of a seed sweep
// parses, elaborates, and synthesizes at its default parameters.
func TestGeneratedDesignsSynthesize(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			n := 15 // three components per family
			c, err := Generate(Config{Components: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			d, err := c.Design(0)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, comp := range c.Components {
				res, err := synth.Synthesize(d, comp.Top, nil)
				if err != nil {
					t.Fatalf("synthesize %s: %v\nsource:\n%s", comp.Top, err, c.Files[comp.File])
				}
				if res.Optimized == nil || len(res.Optimized.Cells) == 0 {
					t.Fatalf("synthesize %s: empty netlist", comp.Top)
				}
				if comp.Effort < 0.1 {
					t.Fatalf("component %s: effort %v below floor", comp.Top, comp.Effort)
				}
				if comp.Project == "" {
					t.Fatalf("component %s: empty project", comp.Top)
				}
			}
		})
	}
}

// TestGenerateShareGroups: components are dealt round-robin into about
// √Components share groups (projects), at least 3 and never more than
// Components.
func TestGenerateShareGroups(t *testing.T) {
	c, err := Generate(Config{Components: 9, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	projects := map[string]int{}
	for _, comp := range c.Components {
		projects[comp.Project]++
	}
	if len(projects) != 3 {
		t.Fatalf("want 3 projects, got %v", projects)
	}
	for p, n := range projects {
		if n != 3 {
			t.Fatalf("project %s has %d components, want 3", p, n)
		}
	}

	// The floor of 3 groups clamps to one component per group.
	c, err = Generate(Config{Components: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	projects = map[string]int{}
	for _, comp := range c.Components {
		projects[comp.Project]++
	}
	if len(c.Components) != 2 || len(projects) != 2 {
		t.Fatalf("want 2 components in 2 projects, got %d in %v", len(c.Components), projects)
	}
}

// FuzzGenerate: arbitrary (seed, size) configs must generate corpora
// whose every component parses, elaborates, and synthesizes — on one
// shared workspace, with and without the single-instance rule,
// bit-identically to direct lowering.
func FuzzGenerate(f *testing.F) {
	f.Add(uint64(1), uint8(4))
	f.Add(uint64(0xdeadbeef), uint8(0))
	f.Add(uint64(77), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		components := 1 + int(n%8)
		c, err := Generate(Config{Components: components, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		d, err := c.Design(1)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		// One workspace lowers every component, the way a measurement
		// worker does, so templates of the shared gl_* modules recorded
		// for one component are stamped into the next; each netlist
		// must equal a direct lowering with templates disabled.
		ws := synth.NewWorkspace()
		for _, comp := range c.Components {
			inst, report, err := elab.ElaborateOpts(d, comp.Top, nil, elab.Options{})
			if err != nil {
				t.Fatalf("elaborate %s: %v", comp.Top, err)
			}
			for _, dedup := range []bool{false, true} {
				want, err := synth.SynthesizeInstance(inst, report, synth.LowerOptions{DedupInstances: dedup, DisableTemplates: true})
				if err != nil {
					t.Fatalf("synthesize %s: %v", comp.Top, err)
				}
				got, err := synth.SynthesizeInstance(inst, report, synth.LowerOptions{DedupInstances: dedup, Workspace: ws})
				if err != nil {
					t.Fatalf("synthesize %s on the shared workspace: %v", comp.Top, err)
				}
				if got.Raw.Hash() != want.Raw.Hash() || got.Optimized.Hash() != want.Optimized.Hash() {
					t.Fatalf("%s dedup=%t: shared-workspace netlist diverges from direct lowering", comp.Top, dedup)
				}
			}
		}
	})
}
