package measure

import (
	"context"
	"strings"
	"testing"

	"repro/internal/hdl"
)

// TestFailedFlightNotSharedAcrossTops: two renamed copies of a
// component that fails synthesis share one flight, but the copy that
// did not own it reports its own error, the one it reports when
// measured alone, not the owner's. Without that, which copy's name a
// failed batch reports would depend on which group planned first.
func TestFailedFlightNotSharedAcrossTops(t *testing.T) {
	body := ` (input c1, input c2, input [1:0] a, input d, output q);
  reg m [0:3];
  always @(posedge c1) m[a] <= d;
  always @(posedge c2) m[a] <= ~d;
  assign q = m[a];
endmodule
`
	d, err := hdl.ParseDesign(map[string]string{"bad.v": "module bad_a" + body + "module bad_b" + body})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(d)
	var opts Options
	ws := getWorkspace()
	defer putWorkspace(ws)
	ecache := &groupCache{}
	ctx := context.Background()

	owner := s.planUnit(ctx, Unit{Top: "bad_b"}, opts, ecache)
	waiter := s.planUnit(ctx, Unit{Top: "bad_a"}, opts, ecache)
	if owner.owned == nil || waiter.flight != owner.flight {
		t.Fatal("the renamed copies did not share one flight")
	}
	s.synthesizeFlight(ctx, owner, opts, ecache, ws)
	_, ownerErr := s.assembleUnit(ctx, Unit{Top: "bad_b"}, owner, opts)
	_, waiterErr := s.assembleUnit(ctx, Unit{Top: "bad_a"}, waiter, opts)
	_, alone := MeasureComponent(d, "bad_a", false, Options{})
	if ownerErr == nil || waiterErr == nil || alone == nil {
		t.Fatalf("errors %v, %v, alone %v: want all three to fail", ownerErr, waiterErr, alone)
	}
	if !strings.Contains(ownerErr.Error(), "bad_b") {
		t.Errorf("owner's error %q does not name its own top", ownerErr)
	}
	if waiterErr.Error() != alone.Error() {
		t.Errorf("copy's error %q, measured alone %q", waiterErr, alone)
	}
}
