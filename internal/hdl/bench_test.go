package hdl_test

import (
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/designs"
	"repro/internal/hdl"
)

func BenchmarkParseCounter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hdl.Parse("bench.v", hdl.CounterSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLexCounter(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := hdl.NewLexer("bench.v", hdl.CounterSrc)
		for {
			tok, err := l.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok.Kind == hdl.TokEOF {
				break
			}
		}
	}
}

// benchDesign parses srcs into a design and reads its fingerprint, as
// every measurement front end does.
func benchDesign(b *testing.B, srcs map[string]string) {
	d, err := hdl.ParseDesign(srcs)
	if err != nil {
		b.Fatal(err)
	}
	_ = d.Fingerprint()
}

// BenchmarkParseDesignCold parses the paper corpus with every file's
// text new to the parse memo, so it measures parsing and hashing, not
// reuse: iterations alternate between two variants of the corpus that
// differ in a trailing comment, and the memo keeps one version per
// file name.
func BenchmarkParseDesignCold(b *testing.B) {
	var variants [2]map[string]string
	for i := range variants {
		variants[i] = designs.Sources()
		for name, src := range variants[i] {
			variants[i][name] = fmt.Sprintf("%s// variant %d\n", src, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDesign(b, variants[i%2])
	}
}

// BenchmarkParseDesignOneFileEdit parses the paper corpus after an edit
// to one component's file, a different one each iteration: the
// `ucmetrics -watch` save.
func BenchmarkParseDesignOneFileEdit(b *testing.B) {
	base := designs.Sources()
	srcs := maps.Clone(base)
	comps := designs.All()
	benchDesign(b, srcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file := comps[i%len(comps)].Label() + ".v"
		srcs[file] = strings.Replace(base[file], "endmodule", fmt.Sprintf("  wire edit_%d;\nendmodule", i), 1)
		benchDesign(b, srcs)
	}
}

// BenchmarkParseDesignNoop re-parses unchanged sources: a watcher
// wakeup with nothing saved.
func BenchmarkParseDesignNoop(b *testing.B) {
	srcs := designs.Sources()
	benchDesign(b, srcs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDesign(b, srcs)
	}
}
