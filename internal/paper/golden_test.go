package paper

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
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
// with the same per-exhibit newline, through one shared session and the
// given cache (nil: cache off).
func renderAll(t *testing.T, ch *cache.Cache) string {
	t.Helper()
	sess, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	opts := Opts{Session: sess, Cache: ch}
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
// testdata/all.golden with the measurement cache off, cold, warm, and
// warm in verify mode. The warm runs answer every component from disk
// records, so the timing extension reads its metrics from them.
func TestGoldenAllExhibits(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus measurement")
	}
	got := renderAll(t, nil)
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
	sameGolden(t, "cache off", got, string(want))

	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameGolden(t, "cold cache", renderAll(t, ch), string(want))
	if s := ch.Stats(); s.Puts == 0 {
		t.Fatalf("cold run wrote nothing: %+v", s)
	}
	warm, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameGolden(t, "warm cache", renderAll(t, warm), string(want))
	if s := warm.Stats(); s.Misses != 0 || s.Hits == 0 {
		t.Errorf("warm run stats %+v: want every measurement answered from disk", s)
	}
	verify, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	verify.SetVerify(true)
	sameGolden(t, "warm cache, verify", renderAll(t, verify), string(want))
	if s := verify.Stats(); s.VerifyChecks == 0 || s.VerifyMismatches != 0 {
		t.Errorf("verify run stats %+v: want clean verify checks", s)
	}
}

// sameGolden fails the test at the first line where got differs from
// the golden rendering.
func sameGolden(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: rendered exhibits differ from %s at line %d:\n got: %q\nwant: %q", label, goldenPath, i+1, g, w)
		}
	}
}
