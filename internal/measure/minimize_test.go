package measure

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/hdl"
)

func design(t *testing.T, src string) *hdl.Design {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"t.v": src})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// memoDesign has two interacting parameters and a generate loop, so
// the minimization search needs more than one fixpoint round and
// revisits design points it has already probed.
const memoDesign = `
module m #(parameter N = 8, parameter W = 16) (input [W-1:0] a, output [W-1:0] y);
  genvar i;
  generate for (i = 1; i < N; i = i + 1) begin : g
    assign y[i%W] = a[i%W] ^ a[(i-1)%W];
  end endgenerate
  assign y[0] = a[0];
endmodule`

func TestMinimizeParamsMemoizesRepeatedPoints(t *testing.T) {
	d := design(t, memoDesign)
	params, memo, err := minimizeParams(d, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if params["N"] != 2 {
		t.Errorf("N = %d, want 2", params["N"])
	}
	hits, misses := memo.hits, memo.misses
	if hits == 0 {
		t.Errorf("search elaborated every candidate from scratch (hits=0, misses=%d); the fixpoint rounds must hit the memo", misses)
	}
	// The winning point's verdict must be memoized, and the final full
	// elaboration must come out of the session cache bit-identical to
	// an uncached one.
	if v, ok := memo.verdict[elab.ParamSignature("m", params)]; !ok || !v {
		t.Errorf("winning point %v not memoized as compatible", params)
	}
	cached, cachedRep, err := elab.ElaborateOpts(d, "m", params, elab.Options{Cache: memo.sess})
	if err != nil {
		t.Fatal(err)
	}
	plain, plainRep, err := elab.ElaborateOpts(d, "m", params, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cachedRep.String() != plainRep.String() {
		t.Errorf("cached report differs from uncached:\n%s\nvs\n%s", cachedRep, plainRep)
	}
	if got, want := cached.CountInstances(), plain.CountInstances(); got != want {
		t.Errorf("cached tree has %d instances, uncached %d", got, want)
	}
}

// TestMinimizeParamsSharedSessionCache pins that running the search
// against a caller-provided (shared) elaboration cache — the Session
// configuration — lands on the same parameters as a private cache,
// even when the cache is already warm from another module's search.
func TestMinimizeParamsSharedSessionCache(t *testing.T) {
	d := design(t, memoDesign)
	want, _, err := minimizeParams(d, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	shared := elab.NewCache()
	for range 2 { // second pass runs against a fully warm cache
		got, _, err := minimizeParams(d, "m", shared)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("shared-cache search minimized to %v, private-cache to %v", got, want)
			}
		}
	}
}

const replicatedDesign = `
module alu #(parameter W = 8) (input [W-1:0] a, b, input op, output [W-1:0] y);
  assign y = op ? (a - b) : (a + b);
endmodule
module quad #(parameter W = 8) (input [W-1:0] a, b, c, d, input op, output [W-1:0] y);
  wire [W-1:0] t1, t2, t3;
  alu #(.W(W)) u0 (.a(a), .b(b), .op(op), .y(t1));
  alu #(.W(W)) u1 (.a(c), .b(d), .op(op), .y(t2));
  alu #(.W(W)) u2 (.a(t1), .b(t2), .op(op), .y(t3));
  alu #(.W(W)) u3 (.a(t3), .b(a), .op(op), .y(y));
endmodule`

func TestCandidateValuesOrdering(t *testing.T) {
	vals := candidateValues(1000)
	if vals[0] != 0 || vals[1] != 1 {
		t.Errorf("candidates start %v", vals[:2])
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("candidates not ascending: %v", vals)
		}
	}
	if vals[len(vals)-1] >= 1000 {
		t.Errorf("candidates must stay below the current value: %v", vals[len(vals)-1])
	}
}

// TestCandidateValuesGap pins the deliberate shape of the candidate
// sequence: small values are probed exhaustively (0..64, where real
// minimized parameters live), then only powers of two from 128 up —
// nothing in 65..127. The gap is intentional: it bounds the search at
// large defaults without losing the small-value resolution the paper's
// scaling rule needs. Changing it changes which points the search can
// land on, so it must not shift silently.
func TestCandidateValuesGap(t *testing.T) {
	vals := candidateValues(1 << 20)
	seen := map[int64]bool{}
	for _, v := range vals {
		seen[v] = true
	}
	for v := int64(0); v <= 64; v++ {
		if !seen[v] {
			t.Errorf("small value %d missing: 0..64 must be exhaustive", v)
		}
	}
	for v := int64(65); v <= 127; v++ {
		if seen[v] {
			t.Errorf("value %d present: 65..127 is a deliberate gap", v)
		}
	}
	for v := int64(128); v < 1<<20; v *= 2 {
		if !seen[v] {
			t.Errorf("power of two %d missing above the gap", v)
		}
	}
	if len(vals) != 65+13 {
		t.Errorf("candidateValues(1<<20) has %d entries, want 65 small + 13 powers of two", len(vals))
	}
}
