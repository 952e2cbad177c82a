package measure_test

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/hdl"
	"repro/internal/measure"
)

// sameResult fails the test unless two component measurements are
// bit-identical in everything paper-facing: the full metrics struct,
// the minimized parameters, the accounting counts, the optimized
// netlist's hash, and its timing summary.
func sameResult(t *testing.T, label string, got, want *measure.ComponentResult) {
	t.Helper()
	if *got.Metrics != *want.Metrics {
		t.Errorf("%s: metrics differ:\n got %+v\nwant %+v", label, *got.Metrics, *want.Metrics)
	}
	if !maps.Equal(got.MinimizedParams, want.MinimizedParams) {
		t.Errorf("%s: minimized parameters differ: got %v, want %v", label, got.MinimizedParams, want.MinimizedParams)
	}
	if got.InstanceCount != want.InstanceCount {
		t.Errorf("%s: instance count %d, want %d", label, got.InstanceCount, want.InstanceCount)
	}
	if got.DedupedInstances != want.DedupedInstances {
		t.Errorf("%s: deduped %d, want %d", label, got.DedupedInstances, want.DedupedInstances)
	}
	if got.NetlistHash == "" || got.NetlistHash != want.NetlistHash {
		t.Errorf("%s: optimized netlist hash %s, want %s", label, got.NetlistHash, want.NetlistHash)
	}
	if got.Timing != want.Timing {
		t.Errorf("%s: timing summary %+v, want %+v", label, got.Timing, want.Timing)
	}
}

// TestSessionMatchesPerComponentCorpus is the golden differential test
// of the batch path: every corpus component, measured with and without
// the accounting procedure through one Session over the full corpus
// design, must be bit-identical to the test-only reference pipeline
// (fresh elaboration, synthesis, and kernels; no session, cache, or
// workspace) on the component's own two-file design — at concurrency 1
// and 8, with the disk cache off, cold, and warm. The warm batch must be
// answered entirely from disk: nothing planned, nothing synthesized,
// zero cache misses.
func TestSessionMatchesPerComponentCorpus(t *testing.T) {
	comps := designs.All()
	units := make([]measure.Unit, 0, 2*len(comps))
	for _, acct := range []bool{true, false} {
		for _, c := range comps {
			units = append(units, measure.Unit{Top: c.Top, UseAccounting: acct})
		}
	}

	// Reference: the fresh pipeline, each component on its own parsed
	// design, sequential, no cache.
	want := make([]*measure.ComponentResult, len(units))
	for i, c := range append(append([]designs.Component{}, comps...), comps...) {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := measure.MeasureComponentRef(d, c.Top, units[i].UseAccounting, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		want[i] = res
	}

	full, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			check := func(t *testing.T, got []*measure.ComponentResult) {
				t.Helper()
				if len(got) != len(units) {
					t.Fatalf("%d results for %d units", len(got), len(units))
				}
				for i, u := range units {
					sameResult(t, fmt.Sprintf("%s(acct=%t)", u.Top, u.UseAccounting), got[i], want[i])
				}
			}

			t.Run("cache=off", func(t *testing.T) {
				sess := measure.NewSession(full)
				got, err := sess.MeasureAll(units, measure.Options{Concurrency: workers})
				if err != nil {
					t.Fatal(err)
				}
				check(t, got)
				s := sess.Stats()
				if s.Components != len(units) || s.Planned != len(units) {
					t.Errorf("stats %+v: want %d components planned", s, len(units))
				}
				if s.Synthesized+s.Shared != s.Planned {
					t.Errorf("stats %+v: synthesized+shared != planned", s)
				}
				if s.Shared == 0 {
					t.Errorf("stats %+v: the corpus has at least one shareable signature (minimization landing on defaults with no duplicate instances)", s)
				}
			})

			t.Run("cache=cold+warm", func(t *testing.T) {
				dir := t.TempDir()
				cold, err := cache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				sess := measure.NewSession(full)
				got, err := sess.MeasureAll(units, measure.Options{Concurrency: workers, Cache: cold})
				if err != nil {
					t.Fatal(err)
				}
				check(t, got)
				// Cold traffic splits by kind: every distinct structure
				// the session searched misses (then writes) its
				// "search" record — the corpus's 18 components are 18
				// structures — and every distinct signature it
				// synthesized its "sig" record: 18 + 35 = 53. No record
				// is kept per unit.
				searched := int64(len(comps))
				synthesized := int64(sess.Stats().Synthesized)
				if cs := cold.Stats(); cs.Hits != 0 || cs.Misses != searched+synthesized || cs.Misses != 53 {
					t.Errorf("cold cache stats %+v: want 0 hits, %d misses", cs, searched+synthesized)
				}
				ks := cold.KindStats()
				if kc := ks["search"]; kc.Hits != 0 || kc.Misses != searched || kc.Puts != searched {
					t.Errorf("cold search-kind counters %+v: want 0/%d/%d", kc, searched, searched)
				}
				if kc, ok := ks["component"]; ok {
					t.Errorf("cold component-kind counters %+v: want no component traffic", kc)
				}
				if kc := ks["sig"]; kc.Hits != 0 || kc.Misses != synthesized || kc.Puts != synthesized {
					t.Errorf("cold sig-kind counters %+v: want 0/%d/%d", kc, synthesized, synthesized)
				}

				// A one-unit MeasureComponent on the same parsed design
				// reads the entries the batch just wrote.
				warm0, err := cache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				one, err := measure.MeasureComponent(full, comps[0].Top, true, measure.Options{Concurrency: 1, Cache: warm0})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, comps[0].Label()+"(per-component warm)", one, want[0])
				if cs := warm0.Stats(); cs.Hits != 2 || cs.Misses != 0 {
					t.Errorf("per-component warm read: stats %+v, want exactly two hits (search + sig)", cs)
				}

				warm, err := cache.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				sess2 := measure.NewSession(full)
				got2, err := sess2.MeasureAll(units, measure.Options{Concurrency: workers, Cache: warm})
				if err != nil {
					t.Fatal(err)
				}
				check(t, got2)
				// Warm, every unit is planned and assembled in memory,
				// and every search and flight is read from disk once.
				if s := sess2.Stats(); s.Components != len(units) || s.Planned != len(units) || s.Synthesized != 0 {
					t.Errorf("warm session stats %+v: want all %d units planned from disk records", s, len(units))
				}
				if cs := warm.Stats(); cs.Misses != 0 || cs.Puts != 0 || cs.Hits != searched+synthesized {
					t.Errorf("warm cache stats %+v: want %d hits, 0 misses", cs, searched+synthesized)
				}

				// A baseline anchored on warm results, which carry only
				// what the disk records hold, records the same netlist
				// hash per unit as one anchored on the cold results.
				coldBase, err := sess.Baseline(units, got, measure.Options{})
				if err != nil {
					t.Fatal(err)
				}
				warmBase, err := sess2.Baseline(units, got2, measure.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for i, u := range units {
					ch, wh := coldBase.Results[i].NetlistHash, warmBase.Results[i].NetlistHash
					if ch == "" || wh != ch {
						t.Errorf("%s(acct=%t): warm baseline netlist hash %q, cold %q", u.Top, u.UseAccounting, wh, ch)
					}
				}
			})
		})
	}
}

// TestConcurrentSessionsSharePoolOnly stresses the process-wide
// workspace pool: several goroutines each run their own private
// Sessions — nothing shared between them except the pool — with
// 8 workers, and each goroutine churns through repeated
// session-create/measure/discard cycles so workspaces are returned
// (Reset) and re-taken across session and goroutine boundaries many
// times. Every cycle must be bit-identical to a sequential reference;
// combined with `go test -race` this pins that a recycled workspace
// carries no state from its previous owner.
func TestConcurrentSessionsSharePoolOnly(t *testing.T) {
	src := map[string]string{"t.v": `
module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module pair #(parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t1, t2;
  leaf #(.W(W)) u0 (.a(a), .y(t1));
  leaf #(.W(W)) u1 (.a(b), .y(t2));
  assign y = t1 & t2;
endmodule
module top #(parameter N = 6, parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t;
  pair #(.W(W)) u (.a(a), .b(b), .y(t));
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    assign y[i%W] = t[i%W];
  end endgenerate
endmodule`}
	d, err := hdl.ParseDesign(src)
	if err != nil {
		t.Fatal(err)
	}
	units := []measure.Unit{
		{Top: "top", UseAccounting: true},
		{Top: "top", UseAccounting: false},
		{Top: "pair", UseAccounting: true},
	}
	ref := measure.NewSession(d)
	want, err := ref.MeasureAll(units, measure.Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 4
	const cycles = 3
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cycle := range cycles {
				sess := measure.NewSession(d)
				got, err := sess.MeasureAll(units, measure.Options{Concurrency: 8})
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d cycle %d: %w", g, cycle, err)
					return
				}
				for i, u := range units {
					if *got[i].Metrics != *want[i].Metrics {
						errCh <- fmt.Errorf("goroutine %d cycle %d %s(acct=%t): metrics differ:\n got %+v\nwant %+v",
							g, cycle, u.Top, u.UseAccounting, *got[i].Metrics, *want[i].Metrics)
						return
					}
					if gh, wh := got[i].NetlistHash, want[i].NetlistHash; gh != wh {
						errCh <- fmt.Errorf("goroutine %d cycle %d %s(acct=%t): netlist hash %s, want %s",
							g, cycle, u.Top, u.UseAccounting, gh, wh)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestSessionConcurrentMeasureAll hammers one shared Session from 8
// goroutines measuring the same batch — the configuration the race
// detector checks in CI. Every goroutine must see results identical
// to a sequential private-session reference. The session's search
// memo and flight table are the only single-flight layer, so they
// alone must make the session compute each key exactly once: it
// synthesizes what the reference synthesizes, and on a cold disk
// cache it misses and writes each "search" and "sig" record exactly
// as often as the reference, reading none.
func TestSessionConcurrentMeasureAll(t *testing.T) {
	src := map[string]string{"t.v": `
module leaf #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);
  assign y = ~a;
endmodule
module pair #(parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t1, t2;
  leaf #(.W(W)) u0 (.a(a), .y(t1));
  leaf #(.W(W)) u1 (.a(b), .y(t2));
  assign y = t1 & t2;
endmodule
module top #(parameter N = 6, parameter W = 4) (input [W-1:0] a, b, output [W-1:0] y);
  wire [W-1:0] t;
  pair #(.W(W)) u (.a(a), .b(b), .y(t));
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : g
    assign y[i%W] = t[i%W];
  end endgenerate
endmodule`}
	d, err := hdl.ParseDesign(src)
	if err != nil {
		t.Fatal(err)
	}
	units := []measure.Unit{
		{Top: "top", UseAccounting: true},
		{Top: "top", UseAccounting: false},
		{Top: "pair", UseAccounting: true},
		{Top: "pair", UseAccounting: false},
	}
	for _, cold := range []bool{false, true} {
		name := "cache-off"
		if cold {
			name = "cold-cache"
		}
		t.Run(name, func(t *testing.T) {
			open := func() *cache.Cache {
				if !cold {
					return nil
				}
				ch, err := cache.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return ch
			}
			refCache := open()
			ref := measure.NewSession(d)
			want, err := ref.MeasureAll(units, measure.Options{Concurrency: 1, Cache: refCache})
			if err != nil {
				t.Fatal(err)
			}

			ch := open()
			sess := measure.NewSession(d)
			const goroutines = 8
			results := make([][]*measure.ComponentResult, goroutines)
			errs := make([]error, goroutines)
			start := make(chan struct{}) // release every goroutine at once
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					results[g], errs[g] = sess.MeasureAll(units, measure.Options{Concurrency: 2, Cache: ch})
				}()
			}
			close(start)
			wg.Wait()
			for g := range goroutines {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				for i, u := range units {
					sameResult(t, fmt.Sprintf("goroutine %d %s(acct=%t)", g, u.Top, u.UseAccounting), results[g][i], want[i])
				}
			}
			// All 8 goroutines planned every unit, but each distinct
			// design point was synthesized exactly once across the
			// whole session, as in the sequential reference.
			s, rs := sess.Stats(), ref.Stats()
			if s.Planned != goroutines*len(units) {
				t.Errorf("stats %+v: want %d planned", s, goroutines*len(units))
			}
			if s.Synthesized != rs.Synthesized {
				t.Errorf("stats %+v: synthesized %d, reference synthesized %d", s, s.Synthesized, rs.Synthesized)
			}
			if s.Shared != s.Planned-s.Synthesized {
				t.Errorf("stats %+v: shared != planned-synthesized", s)
			}
			if !cold {
				return
			}
			kinds, refKinds := ch.KindStats(), refCache.KindStats()
			for _, kind := range []string{"search", "sig"} {
				k, rk := kinds[kind], refKinds[kind]
				if rk.Misses == 0 || rk.Puts != rk.Misses {
					t.Fatalf("reference %s stats %+v: want misses = puts > 0", kind, rk)
				}
				if k.Hits != 0 || k.Misses != rk.Misses || k.Puts != rk.Puts {
					t.Errorf("%s stats %+v, want 0 hits and the reference's %d misses and puts", kind, k, rk.Misses)
				}
			}
		})
	}
}

// TestFlightsKeptByMeasureAllAndStream pins the entry points'
// flight-table rule: both keep their flights, so a second batch of the
// same units on the same session — MeasureAll or MeasureStream —
// synthesizes nothing and answers every planned unit from the table
// (the paper workload's extension depends on this reuse of Figure 6's
// flights).
func TestFlightsKeptByMeasureAllAndStream(t *testing.T) {
	d, err := designs.FullDesign()
	if err != nil {
		t.Fatal(err)
	}
	var units []measure.Unit
	for _, c := range designs.All()[:4] {
		for _, acct := range []bool{true, false} {
			units = append(units, measure.Unit{Top: c.Top, UseAccounting: acct})
		}
	}
	opts := measure.Options{Concurrency: 2}
	drain := func(int, *measure.ComponentResult) error { return nil }
	for _, tc := range []struct {
		name string
		run  func(*measure.Session) error
	}{
		{"MeasureAll", func(s *measure.Session) error {
			_, err := s.MeasureAll(units, opts)
			return err
		}},
		{"MeasureStream", func(s *measure.Session) error {
			return s.MeasureStream(units, opts, drain)
		}},
	} {
		sess := measure.NewSession(d)
		if err := tc.run(sess); err != nil {
			t.Fatal(err)
		}
		first := sess.Stats()
		if first.Synthesized == 0 {
			t.Fatalf("%s: stats %+v: first batch synthesized nothing", tc.name, first)
		}
		if err := tc.run(sess); err != nil {
			t.Fatal(err)
		}
		second := sess.Stats()
		if got := second.Synthesized - first.Synthesized; got != 0 {
			t.Errorf("%s: second batch synthesized %d signatures, want 0", tc.name, got)
		}
		planned := second.Planned - first.Planned
		if planned != len(units) {
			t.Errorf("%s: second batch planned %d units, want %d", tc.name, planned, len(units))
		}
		if got := second.Shared - first.Shared; got != planned {
			t.Errorf("%s: second batch shared %d, want every planned unit (%d)", tc.name, got, planned)
		}
	}
}

// TestSessionsWithRedefinedModuleMatchReference measures two designs
// back to back on one worker. Both define a module "cell" with the
// same ports and parameters but a different body, and instantiate it
// from two components, so within each batch the lowering templates of
// "cell" are shared across units. Nothing recorded for the first
// design may reach the second: every result must equal the reference
// pipeline on its own design.
func TestSessionsWithRedefinedModuleMatchReference(t *testing.T) {
	const comps = `
module pair #(parameter N = 2) (input [3:0] a, b, output [3:0] y);
  wire [4*N-1:0] t;
  genvar i;
  generate
    for (i = 0; i < N; i = i + 1) begin : g
      cell c (.a(a), .b(b), .y(t[4*i+3:4*i]));
    end
  endgenerate
  assign y = t[3:0] ^ t[4*N-1:4*N-4];
endmodule
module quad (input [3:0] a, b, c, d, output [3:0] y, z);
  cell c0 (.a(a), .b(b), .y(y));
  cell c1 (.a(c), .b(d), .y(z));
endmodule
`
	bodies := []string{
		"module cell (input [3:0] a, b, output [3:0] y);\n  assign y = a + b;\nendmodule\n",
		"module cell (input [3:0] a, b, output [3:0] y);\n  assign y = (a & b) ^ {b[0], a[3:1]};\nendmodule\n",
	}
	units := []measure.Unit{
		{Top: "pair", UseAccounting: false},
		{Top: "quad", UseAccounting: false},
		{Top: "pair", UseAccounting: true},
		{Top: "quad", UseAccounting: true},
	}
	for i, body := range bodies {
		d, err := hdl.ParseDesign(map[string]string{"comps.v": comps, "cell.v": body})
		if err != nil {
			t.Fatal(err)
		}
		got, err := measure.NewSession(d).MeasureAll(units, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("design %d: %v", i, err)
		}
		for j, u := range units {
			want, err := measure.MeasureComponentRef(d, u.Top, u.UseAccounting, measure.Options{Concurrency: 1})
			if err != nil {
				t.Fatalf("design %d %s: %v", i, u.Top, err)
			}
			sameResult(t, fmt.Sprintf("design %d %s(acct=%t)", i, u.Top, u.UseAccounting), got[j], want)
		}
	}
}

// TestUndeclaredModuleInUntakenBranch: a module instantiated only in a
// generate branch elaboration never takes need not be declared. The
// session measures such a top in both accounting modes, equal to the
// reference pipeline; a top whose taken branch reaches the undeclared
// module still fails, naming it.
func TestUndeclaredModuleInUntakenBranch(t *testing.T) {
	const src = `
module top #(parameter N = 2) (input [3:0] a, output [3:0] y);
  generate if (N > 8) begin : big
    missing u (.a(a), .y(y));
  end else begin : small
    assign y = a + N;
  end endgenerate
endmodule
module taken (input [3:0] a, output [3:0] y);
  generate if (1) begin : big
    missing u (.a(a), .y(y));
  end endgenerate
endmodule
`
	d, err := hdl.ParseDesign(map[string]string{"u.v": src})
	if err != nil {
		t.Fatal(err)
	}
	for _, acct := range []bool{true, false} {
		got, err := measure.NewSession(d).MeasureAll([]measure.Unit{{Top: "top", UseAccounting: acct}}, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("acct=%t: %v", acct, err)
		}
		want, err := measure.MeasureComponentRef(d, "top", acct, measure.Options{Concurrency: 1})
		if err != nil {
			t.Fatalf("acct=%t reference: %v", acct, err)
		}
		sameResult(t, fmt.Sprintf("top(acct=%t)", acct), got[0], want)

		_, err = measure.NewSession(d).MeasureAll([]measure.Unit{{Top: "taken", UseAccounting: acct}}, measure.Options{Concurrency: 1})
		if err == nil || !strings.Contains(err.Error(), `"missing"`) {
			t.Errorf("taken(acct=%t): error %v, want one naming the undeclared module", acct, err)
		}
	}
}
