package elab

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/designs"
)

// TestProbeFailsBeforeChildren pins parent-first order on the paper's
// commonest failing probe: Leon3's pipeline at W=31 fails its own
// constant select if_inst[31], so a report-only probe against a warm
// session cache returns that error without elaborating (or looking up)
// either child subtree, and the cache's counters do not move.
func TestProbeFailsBeforeChildren(t *testing.T) {
	c, err := designs.ByLabel("Leon3-Pipeline")
	if err != nil {
		t.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewCache()
	if _, _, err := ElaborateOpts(d, c.Top, nil, Options{Cache: sess}); err != nil {
		t.Fatal(err)
	}
	before := sess.Stats()
	w31 := map[string]int64{"W": 31}
	_, _, err = ElaborateOpts(d, c.Top, w31, Options{Cache: sess, ReportOnly: true})
	if err == nil || !strings.Contains(err.Error(), `bit index 31 out of range for "if_inst"`) {
		t.Fatalf("W=31 probe: error %v, want the if_inst[31] range error", err)
	}
	_, _, plainErr := ElaborateOpts(d, c.Top, w31, Options{})
	if plainErr == nil || err.Error() != plainErr.Error() {
		t.Errorf("probe error %q, uncached %q", err, plainErr)
	}
	if after := sess.Stats(); after != before {
		t.Errorf("failing probe touched the cache: %+v -> %+v", before, after)
	}
}

// TestParentRangeErrorWins pins the error precedence of parent-first
// order: when a module and its child both fail their range checks, the
// module's own error is the one reported, in every elaboration mode.
func TestParentRangeErrorWins(t *testing.T) {
	d := design(t, map[string]string{"m.v": `
module leaf #(parameter W = 8) (input [W-1:0] a, output y);
  assign y = a[5];
endmodule
module m #(parameter W = 8) (input [W-1:0] a, output y, output z);
  leaf #(.W(W)) u (.a(a), .y(y));
  assign z = a[7];
endmodule`})
	w4 := map[string]int64{"W": 4}
	for _, opts := range []Options{{}, {Cache: NewCache()}, {ReportOnly: true}, {Cache: NewCache(), ReportOnly: true}} {
		_, _, err := ElaborateOpts(d, "m", w4, opts)
		if err == nil || !strings.Contains(err.Error(), "m.v:7:") || !strings.Contains(err.Error(), "bit index 7") {
			t.Errorf("cache=%v reportOnly=%v: error %v, want m's own a[7] at m.v:7", opts.Cache != nil, opts.ReportOnly, err)
		}
	}
}

// candidates returns the values the accounting search probes below a
// parameter's value cur: 0..64, then powers of two.
func candidates(cur int64) []int64 {
	var out []int64
	for v := int64(0); v < min(cur, 65); v++ {
		out = append(out, v)
	}
	for v := int64(128); v < cur; v *= 2 {
		out = append(out, v)
	}
	return out
}

// TestConcurrentProbesMatchFresh runs report-only probes of every paper
// component at every candidate value of every parameter, from four
// goroutines in shuffled order against one warm session cache per
// component, so pooled scratch elaborators pass between designs and
// goroutines (run under -race by scripts/ci.sh). Every probe must
// report exactly what a fresh uncached elaboration reports, or fail
// with the same error.
func TestConcurrentProbesMatchFresh(t *testing.T) {
	type probe struct {
		label, want string
		run         func() (*Report, error)
	}
	var points []probe
	failing := 0
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Module(c.Top)
		if err != nil {
			t.Fatal(err)
		}
		defaults, err := ResolveParams(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewCache()
		if _, _, err := ElaborateOpts(d, c.Top, nil, Options{Cache: sess}); err != nil {
			t.Fatal(err)
		}
		for name, def := range defaults {
			for _, v := range candidates(def) {
				point := map[string]int64{name: v}
				_, rep, err := ElaborateOpts(d, c.Top, point, Options{})
				want := fmt.Sprint(err)
				if err == nil {
					want = rep.String()
				} else {
					failing++
				}
				points = append(points, probe{
					label: fmt.Sprintf("%s %s=%d", c.Label(), name, v),
					want:  want,
					run: func() (*Report, error) {
						_, rep, err := ElaborateOpts(d, c.Top, point, Options{Cache: sess, ReportOnly: true})
						return rep, err
					},
				})
			}
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })

	var wg sync.WaitGroup
	errs := make(chan string, len(points))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(points); i += 4 {
				rep, err := points[i].run()
				got := fmt.Sprint(err)
				if err == nil {
					got = rep.String()
				}
				if got != points[i].want {
					errs <- fmt.Sprintf("%s: probe\n%s\nfresh\n%s", points[i].label, got, points[i].want)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if failing == 0 || failing == len(points) {
		t.Errorf("%d of %d probes fail; the corpus must exercise both outcomes", failing, len(points))
	}
}

// TestPooledProbeKeepsNoDesign pins that a report-only elaborator goes
// back to the pool holding no reference into the design, cache or
// report it worked on.
func TestPooledProbeKeepsNoDesign(t *testing.T) {
	d := design(t, map[string]string{"m.v": probeDesign})
	if _, _, err := ElaborateOpts(d, "pair", nil, Options{Cache: NewCache(), ReportOnly: true}); err != nil {
		t.Fatal(err)
	}
	el := probes.Get().(*elaborator)
	defer probes.Put(el)
	if el.scratch.Nets == nil {
		t.Skip("the pool handed out a fresh elaborator")
	}
	if el.design != nil || el.cache != nil || el.report != nil || el.scratch.Module != nil || el.scratch.Params != nil {
		t.Errorf("pooled elaborator keeps design %v cache %v report %v module %v params %v",
			el.design, el.cache, el.report, el.scratch.Module, el.scratch.Params)
	}
	if len(el.scratch.Nets)+len(el.scratch.Children)+len(el.pending)+len(el.stack) != 0 {
		t.Error("pooled elaborator keeps nets, children, pending children or a stack")
	}
	for _, n := range el.netA.chunk {
		if n != (Net{}) {
			t.Fatalf("pooled net chunk keeps %+v", n)
		}
	}
	for _, c := range el.chA.chunk {
		if c.Env != nil || c.Ports != nil {
			t.Fatalf("pooled child chunk keeps %+v", c)
		}
	}
}
