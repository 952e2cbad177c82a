package paper

import (
	"strings"
	"testing"
)

func TestTimingAwareExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus measurement")
	}
	res, err := TimingAwareOpts(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"DEE1", "Stmts", "CriticalNs", "NearCritical", "DEE1+Timing"} {
		v, ok := res.SigmaEps[name]
		if !ok || v <= 0 {
			t.Errorf("missing or degenerate σε for %s: %v", name, v)
		}
	}
	// Timing metrics alone are weaker than the structural estimators —
	// the delay of the slowest cone says little about total effort.
	if res.SigmaEps["CriticalNs"] < res.SigmaEps["DEE1"] {
		t.Errorf("CriticalNs (%.2f) should not beat DEE1 (%.2f)",
			res.SigmaEps["CriticalNs"], res.SigmaEps["DEE1"])
	}
	if s := res.String(); !strings.Contains(s, "CriticalNs") {
		t.Errorf("rendering incomplete:\n%s", s)
	}
}
