package hdl_test

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
)

func mustParseDesign(t *testing.T, srcs map[string]string) *hdl.Design {
	t.Helper()
	d, err := hdl.ParseDesign(srcs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// freshDesign builds a design from fresh Parse calls, bypassing the
// parse memo.
func freshDesign(t *testing.T, srcs map[string]string) *hdl.Design {
	t.Helper()
	var files []*hdl.SourceFile
	for _, name := range sortedNames(srcs) {
		f, err := hdl.Parse(name, srcs[name])
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	d, err := hdl.NewDesign(files...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sortedNames(srcs map[string]string) []string {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sameDesign reports every way got differs from want: module set and
// formatted declarations, file names, source counts per module, module
// hashes, subtree hashes, and the fingerprint.
func sameDesign(t *testing.T, got, want *hdl.Design) {
	t.Helper()
	if !reflect.DeepEqual(got.ModuleNames(), want.ModuleNames()) {
		t.Fatalf("module sets differ: %v vs %v", got.ModuleNames(), want.ModuleNames())
	}
	if len(got.Files) != len(want.Files) {
		t.Fatalf("%d files, want %d", len(got.Files), len(want.Files))
	}
	for i, f := range got.Files {
		if f.File != want.Files[i].File {
			t.Errorf("file %s: name differs from a fresh parse", f.File)
		}
	}
	for _, name := range got.ModuleNames() {
		gm, _ := got.Module(name)
		wm, _ := want.Module(name)
		if hdl.Format(gm) != hdl.Format(wm) || gm.Pos != wm.Pos {
			t.Errorf("module %s: declaration differs from a fresh parse", name)
		}
		gLoC, gStmts, _ := got.SourceCounts(name)
		wLoC, wStmts, _ := want.SourceCounts(name)
		if gLoC != wLoC || gStmts != wStmts {
			t.Errorf("module %s: source counts %d/%d, a fresh parse's %d/%d", name, gLoC, gStmts, wLoC, wStmts)
		}
		gh, _ := got.ModuleHash(name)
		wh, _ := want.ModuleHash(name)
		gs, err := got.SubtreeHash(name)
		if err != nil {
			t.Fatal(err)
		}
		ws, _ := want.SubtreeHash(name)
		if gh != wh || gs != ws {
			t.Errorf("module %s: module or subtree hash differs from a fresh parse", name)
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprint differs from a fresh parse")
	}
}

// TestParseMemoReuseMatchesFreshParse: a design built entirely from
// memo hits shares the earlier design's files and is indistinguishable
// from a fresh parse of the same sources.
func TestParseMemoReuseMatchesFreshParse(t *testing.T) {
	srcs := designs.Sources()
	first := mustParseDesign(t, srcs)
	again := mustParseDesign(t, srcs)
	for i, f := range again.Files {
		if f != first.Files[i] {
			t.Errorf("%s was parsed again for identical text", f.File)
		}
	}
	sameDesign(t, again, freshDesign(t, srcs))
}

// TestModuleHashValuesPinned pins the paper corpus's hashes to the
// values every cache directory written so far is keyed by, and checks
// the hashes Parse stores against the definition (SHA-256 of Format),
// which a hand-assembled SourceFile computes on demand.
func TestModuleHashValuesPinned(t *testing.T) {
	d := mustParseDesign(t, designs.Sources())
	if got, want := d.Fingerprint(), "99ef63d4abf813ba815d39ab11f9cb186bde0d32a87e6e2902ed48226473aef1"; got != want {
		t.Errorf("Fingerprint %s, want %s", got, want)
	}
	pins := []struct{ module, hash, subtree string }{
		{"rat_standard", "eee3e5189d8d2dc2c86c2a6a7b0f1629152b1c8db8e9586541b82301ce8e35fc", "d175fc52416bbe228fdd3971c5bbbb9e0ff8d88cc0583c8accd2d50f792eda14"},
		{"lib_alu", "818a08634b554e907f2a8b9ec351214a0adfb030608f6ef5e54f6a30cc157580", "13240490745da2b8f507b6b5e5d7e497c5d41659d966195f70adc033fdcbdb29"},
	}
	for _, p := range pins {
		h, _ := d.ModuleHash(p.module)
		s, _ := d.SubtreeHash(p.module)
		if h != p.hash || s != p.subtree {
			t.Errorf("%s: ModuleHash %s SubtreeHash %s, want %s %s", p.module, h, s, p.hash, p.subtree)
		}
	}
	var bare []*hdl.SourceFile
	for _, f := range d.Files {
		bare = append(bare, &hdl.SourceFile{File: f.File, Modules: f.Modules})
	}
	computed, err := hdl.NewDesign(bare...)
	if err != nil {
		t.Fatal(err)
	}
	sameDesign(t, computed, d)
}

// TestParseMemoReparsesChangedFile: after an edit, only the edited
// file is parsed again, and the result matches a fresh parse.
func TestParseMemoReparsesChangedFile(t *testing.T) {
	srcs := designs.Sources()
	before := mustParseDesign(t, srcs)
	const file = "RAT-Standard.v"
	edited := maps.Clone(srcs)
	edited[file] = strings.Replace(srcs[file], "endmodule", "  wire memo_probe;\nendmodule", 1)
	after := mustParseDesign(t, edited)
	for i, f := range after.Files {
		if reused := f == before.Files[i]; reused == (f.File == file) {
			t.Errorf("%s: reused %v after editing %s", f.File, reused, file)
		}
	}
	sameDesign(t, after, freshDesign(t, edited))
	h1, _ := before.ModuleHash("rat_standard")
	h2, _ := after.ModuleHash("rat_standard")
	if h1 == h2 {
		t.Error("edited module kept its hash")
	}
}

// TestParseMemoSkipsFailedParse: a file that fails to parse is never
// stored, so neither the broken text nor a stale success is served for
// it; the previous good version stays memoized and the fixed text
// parses.
func TestParseMemoSkipsFailedParse(t *testing.T) {
	const name = "memo_fail.v"
	good := "module memo_fail (input a, output y);\n  assign y = a;\nendmodule\n"
	bad := "module memo_fail (input a, output y);\n  assign y = ;\nendmodule\n"
	d := mustParseDesign(t, map[string]string{name: good})
	if _, err := hdl.ParseDesign(map[string]string{name: bad}); err == nil {
		t.Fatal("broken source parsed")
	}
	if _, err := hdl.ParseDesign(map[string]string{name: bad}); err == nil {
		t.Fatal("broken source parsed on the second attempt")
	}
	if src, _ := hdl.MemoizedText(name); src != good {
		t.Errorf("memo holds %q after a failed parse, want the last good text", src)
	}
	again := mustParseDesign(t, map[string]string{name: good})
	if again.Files[0] != d.Files[0] {
		t.Error("a failed parse evicted the good version")
	}
	fixed := strings.Replace(bad, "= ;", "= ~a;", 1)
	d2 := mustParseDesign(t, map[string]string{name: fixed})
	sameDesign(t, d2, freshDesign(t, map[string]string{name: fixed}))

	var m hdl.ParseMemo
	if _, err := m.Parse(name, bad); err == nil {
		t.Fatal("broken source parsed")
	}
	if n, texts := m.Retained(); n != 0 || len(texts) != 0 {
		t.Errorf("failed parse retained %d bytes in %d entries", n, len(texts))
	}
}

// TestParseMemoKeysByName: identical text under two names makes two
// entries, each with its own file name in every position.
func TestParseMemoKeysByName(t *testing.T) {
	src := designs.Sources()["RAT-Standard.v"]
	var files []*hdl.SourceFile
	for _, name := range []string{"memo_p.v", "memo_q.v"} {
		d := mustParseDesign(t, map[string]string{name: src})
		f := d.Files[0]
		for _, m := range f.Modules {
			if m.Pos.File != name {
				t.Errorf("module %s of %s has position %s", m.Name, name, m.Pos)
			}
		}
		if got, ok := hdl.MemoizedText(name); !ok || got != src {
			t.Errorf("%s not memoized", name)
		}
		files = append(files, f)
	}
	if files[0] == files[1] {
		t.Fatal("two names share one parsed file")
	}
}

// TestParseMemoBounded: feeding several times the cap in distinct files
// keeps the retained text at or under the cap and evicts
// least-recently-used names first; a new text for a retained name
// replaces its entry (one version per name); and a file larger than
// the cap is never retained.
func TestParseMemoBounded(t *testing.T) {
	// 16 KB per file, mostly comment so that feeding the memo stays cheap.
	body := "  assign y = a ^ b;\n" + strings.Repeat("  // filler comment line\n", 650)
	src := func(i, version int) string {
		return fmt.Sprintf("module m%04d_v%d (input a, input b, output y);\n%sendmodule\n", i, version, body)
	}
	name := func(i int) string { return fmt.Sprintf("f%04d.v", i) }
	var m hdl.ParseMemo
	parse := func(i, version int) {
		t.Helper()
		if _, err := m.Parse(name(i), src(i, version)); err != nil {
			t.Fatal(err)
		}
		if b, _ := m.Retained(); b > hdl.ParseMemoCap {
			t.Fatalf("%d bytes retained, cap %d", b, hdl.ParseMemoCap)
		}
	}
	check := func(wantBytes int, wantNames map[int]int) {
		t.Helper()
		b, texts := m.Retained()
		if b != wantBytes || len(texts) != len(wantNames) {
			t.Fatalf("retained %d bytes in %d entries, want %d in %d", b, len(texts), wantBytes, len(wantNames))
		}
		for i, version := range wantNames {
			if texts[name(i)] != src(i, version) {
				t.Fatalf("%s: not retained at version %d", name(i), version)
			}
		}
	}

	size := len(src(0, 0))
	keep := hdl.ParseMemoCap / size // entries that fit under the cap
	n := 3 * keep
	for i := 0; i < n; i++ {
		parse(i, 0)
	}
	want := map[int]int{}
	for i := n - keep; i < n; i++ {
		want[i] = 0
	}
	check(keep*size, want) // the most recent names, and only them

	parse(n-keep, 0) // a hit makes the oldest name the most recent...
	parse(n, 0)      // ...so the next insert evicts the second oldest
	delete(want, n-keep+1)
	want[n] = 0
	check(keep*size, want)

	parse(n, 1) // a new text replaces the name's entry
	want[n] = 1
	check(keep*size, want)

	huge := fmt.Sprintf("module huge (input a, output y);\n%sendmodule\n", strings.Repeat("// filler\n", hdl.ParseMemoCap/10+1))
	if _, err := m.Parse("huge.v", huge); err != nil {
		t.Fatal(err)
	}
	if b, texts := m.Retained(); b > hdl.ParseMemoCap || texts["huge.v"] != "" {
		t.Errorf("a file over the cap is retained (%d bytes)", b)
	}
}

// TestParseMemoCapHoldsScaleCorpus: the cap is sized so the generated
// 1000-component corpus is reused whole on its second parse.
func TestParseMemoCapHoldsScaleCorpus(t *testing.T) {
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, src := range corpus.Files {
		n += len(src)
	}
	if n > hdl.ParseMemoCap {
		t.Fatalf("corpus is %d bytes, over the %d-byte cap", n, hdl.ParseMemoCap)
	}
	first, err := corpus.Design(0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := corpus.Design(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range again.Files {
		if f != first.Files[i] {
			t.Fatalf("%s parsed again: the cap does not hold the corpus", f.File)
		}
	}
}

// TestParseDesignParallelConcurrentOverlap parses overlapping source
// sets from several goroutines at once — the same files, and the same
// names with different texts — and checks every design against a fresh
// parse. Run under -race it also checks the memo's locking.
func TestParseDesignParallelConcurrentOverlap(t *testing.T) {
	base := designs.Sources()
	const file = "RAT-Standard.v"
	variants := []map[string]string{base, maps.Clone(base), nil}
	variants[1][file] = strings.Replace(base[file], "endmodule", "  wire race_a;\nendmodule", 1)
	variants[2] = map[string]string{file: strings.Replace(base[file], "endmodule", "  wire race_b;\nendmodule", 1)}
	want := make([]string, len(variants))
	for i, v := range variants {
		want[i] = freshDesign(t, v).Fingerprint()
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (g + i) % len(variants)
				d, err := hdl.ParseDesignParallel(variants[k], 2)
				if err != nil {
					errs <- err
					return
				}
				if d.Fingerprint() != want[k] {
					errs <- fmt.Errorf("goroutine %d, variant %d: fingerprint differs from a fresh parse", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
