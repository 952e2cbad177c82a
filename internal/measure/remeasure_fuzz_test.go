package measure_test

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// fuzzEdit ops, decoded from one byte each.
const (
	opAddModule = iota
	opRemoveModule
	opDeleteFile
	opNeutralWire
	opChange
	numOps
)

// fuzzEditor applies decoded edit operations to a source map. Modules
// are found textually: a declaration starts at "module " at the start
// of a line and ends at the next "endmodule".
type fuzzEditor struct {
	files   map[string]string
	removed []string // declarations opRemoveModule cut, for re-adding
	n       int      // edits applied, for fresh names
}

// declSpan locates the k-th module declaration (mod total count) in
// file order, returning its file and byte span.
func (e *fuzzEditor) declSpan(k int) (file string, start, end int, ok bool) {
	type span struct {
		file       string
		start, end int
	}
	var spans []span
	for _, name := range sortedFiles(e.files) {
		src := e.files[name]
		for off := 0; ; {
			i := strings.Index(src[off:], "module ")
			if i < 0 {
				break
			}
			i += off
			if i > 0 && src[i-1] != '\n' {
				off = i + len("module ")
				continue
			}
			j := strings.Index(src[i:], "endmodule")
			if j < 0 {
				break
			}
			off = i + j + len("endmodule")
			spans = append(spans, span{name, i, off})
		}
	}
	if len(spans) == 0 {
		return "", 0, 0, false
	}
	s := spans[k%len(spans)]
	return s.file, s.start, s.end, true
}

// sortedFiles returns the file names of files, sorted.
func sortedFiles(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// apply performs one edit; arg selects the file or module it acts on.
// It reports false when the edit has nothing to act on.
func (e *fuzzEditor) apply(op, arg byte) bool {
	e.n++
	names := sortedFiles(e.files)
	if len(names) == 0 {
		return false
	}
	switch op % numOps {
	case opAddModule:
		// Odd args move a removed declaration back, possibly into
		// another file; even args add a fresh unreferenced module.
		decl := fmt.Sprintf("module fz_added_%d (input a, output y);\n  assign y = ~a;\nendmodule", e.n)
		if arg%2 == 1 && len(e.removed) > 0 {
			decl = e.removed[len(e.removed)-1]
			e.removed = e.removed[:len(e.removed)-1]
		}
		file := names[int(arg/2)%len(names)]
		e.files[file] += "\n" + decl + "\n"
	case opRemoveModule:
		file, start, end, ok := e.declSpan(int(arg))
		if !ok {
			return false
		}
		src := e.files[file]
		e.removed = append(e.removed, src[start:end])
		e.files[file] = src[:start] + src[end:]
	case opDeleteFile:
		delete(e.files, names[int(arg)%len(names)])
	case opNeutralWire:
		// A fresh unused wire right after the port list.
		file, start, end, ok := e.declSpan(int(arg))
		if !ok {
			return false
		}
		src := e.files[file]
		i := strings.Index(src[start:end], ");\n")
		if i < 0 {
			return false
		}
		at := start + i + len(");\n")
		e.files[file] = src[:at] + fmt.Sprintf("  wire fz_neutral_%d;\n", e.n) + src[at:]
	case opChange:
		// Invert the right-hand side of the module's first continuous
		// assignment.
		file, start, end, ok := e.declSpan(int(arg))
		if !ok {
			return false
		}
		src := e.files[file]
		a := strings.Index(src[start:end], "assign ")
		if a < 0 {
			return false
		}
		a += start
		eq := strings.Index(src[a:end], " =")
		semi := strings.Index(src[a:end], ";")
		if eq < 0 || semi < eq {
			return false
		}
		eq, semi = a+eq+len(" ="), a+semi
		e.files[file] = src[:eq] + " ~(" + src[eq:semi] + ")" + src[semi:]
	}
	return true
}

// fuzzBase is FuzzRemeasure's starting point: a 3-component generated
// corpus, its units, and the baseline of a from-scratch measurement.
var fuzzBase = sync.OnceValues(func() (*gencorpus.Corpus, *measure.Baseline) {
	c, err := gencorpus.Generate(gencorpus.Config{Components: 3, Seed: 23})
	if err != nil {
		panic(err)
	}
	d, err := c.Design(1)
	if err != nil {
		panic(err)
	}
	sess := measure.NewSession(d)
	units := fuzzUnits(c)
	opts := measure.Options{Concurrency: 1}
	res, err := sess.MeasureAll(units, opts)
	if err != nil {
		panic(err)
	}
	b, err := sess.Baseline(units, res, opts)
	if err != nil {
		panic(err)
	}
	return c, b
})

// fuzzUnits measures every component with and without accounting.
func fuzzUnits(c *gencorpus.Corpus) []measure.Unit {
	var units []measure.Unit
	for _, comp := range c.Components {
		units = append(units, measure.Unit{Top: comp.Top, UseAccounting: true}, measure.Unit{Top: comp.Top})
	}
	return units
}

// FuzzRemeasure checks incremental remeasurement against measuring
// from scratch over fuzzed edit scripts: adding, removing and moving
// modules, deleting files, neutral wires and changing edits. Each pair
// of input bytes is one edit (op, argument), applied cumulatively; after
// every edit Remeasure against the rolling baseline must agree with a
// fresh session's MeasureAll of the same sources — the same results,
// or the same error. A failed remeasurement leaves the baseline where
// it was, as the watch loop and the daemon do.
func FuzzRemeasure(f *testing.F) {
	f.Add([]byte{opRemoveModule, 0})
	f.Add([]byte{opDeleteFile, 3})
	f.Add([]byte{opRemoveModule, 9, opAddModule, 1})
	f.Add([]byte{opNeutralWire, 2, opChange, 5, opAddModule, 0})
	f.Add([]byte{opChange, 7, opRemoveModule, 4, opAddModule, 3, opNeutralWire, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		corpus, prev := fuzzBase()
		units := fuzzUnits(corpus)
		ed := &fuzzEditor{files: maps.Clone(corpus.Files)}
		for step := 0; step+1 < len(data) && step < 12; step += 2 {
			if !ed.apply(data[step], data[step+1]) {
				continue
			}
			d, err := hdl.ParseDesign(ed.files)
			if err != nil {
				return // the edit left unparseable sources
			}
			want, wantErr := measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1})
			d2, err := hdl.ParseDesign(ed.files)
			if err != nil {
				t.Fatal(err)
			}
			got, next, stats, gotErr := measure.NewSession(d2).Remeasure(prev, units, measure.Options{Concurrency: 2})
			label := fmt.Sprintf("edit %d (op %d)", step/2, data[step]%numOps)
			switch {
			case (wantErr == nil) != (gotErr == nil):
				t.Fatalf("%s: from-scratch error %v, Remeasure error %v (%+v)", label, wantErr, gotErr, stats)
			case wantErr != nil:
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("%s: Remeasure error %q, from-scratch %q", label, gotErr, wantErr)
				}
				continue
			}
			for j, u := range units {
				sameResult(t, fmt.Sprintf("%s %s(acct=%t)", label, u.Top, u.UseAccounting), got[j], want[j])
			}
			prev = next
		}
	})
}
