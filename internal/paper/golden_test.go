package paper

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// The golden exhibits test pins every number `ucpaper -all` prints:
// Tables 1-4, the AIC/BIC comparison, Figures 2-6 and the timing
// extension, rendered byte for byte. Every σε, AIC and BIC in them
// comes from an NLME fit, so a change to the fitting machinery that
// moves any printed digit fails here. -update rewrites the golden file;
// regenerate it only from code whose output is known to be right.

var updateGolden = flag.Bool("update", false, "regenerate testdata/all.golden from the current code")

const goldenPath = "testdata/all.golden"

// renderAll prints what `ucpaper -all` prints, in the same order and
// with the same per-exhibit newline, through one shared session.
func renderAll(t *testing.T) string {
	t.Helper()
	sess, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	opts := Opts{Session: sess}
	var b strings.Builder
	emit := func(s string) {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	emit(Table1())
	emit(Table2())
	emit(Table3())
	t4, err := Table4N(0)
	if err != nil {
		t.Fatal(err)
	}
	emit(t4.String())
	ab, err := AICBICN(0)
	if err != nil {
		t.Fatal(err)
	}
	emit(ab.String())
	emit(Figure2())
	emit(Figure3())
	f4, err := Figure4N(0)
	if err != nil {
		t.Fatal(err)
	}
	emit(f4.Plot)
	f5, err := Figure5N(0)
	if err != nil {
		t.Fatal(err)
	}
	emit(f5.Plot)
	f6, err := Figure6Opts(opts)
	if err != nil {
		t.Fatal(err)
	}
	emit(f6.String())
	ext, err := TimingAwareOpts(opts)
	if err != nil {
		t.Fatal(err)
	}
	emit(ext.String())
	return b.String()
}

// TestGoldenAllExhibits compares the full rendered reproduction with
// testdata/all.golden.
func TestGoldenAllExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus measurement")
	}
	got := renderAll(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("rendered exhibits differ from %s at line %d:\n got: %q\nwant: %q", goldenPath, i+1, g, w)
		}
	}
}
