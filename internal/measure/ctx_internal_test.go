package measure

import (
	"context"
	"errors"
	"testing"

	"repro/internal/hdl"
)

// tinyDesign parses a one-module design for the white-box flight tests.
func tinyDesign(t *testing.T) *hdl.Design {
	t.Helper()
	d, err := hdl.ParseDesign(map[string]string{"m.v": `
module m (
  input clk,
  input a,
  output reg y
);
  always @(posedge clk) begin
    y <= ~a;
  end
endmodule
`})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAbandonedFlightEvicted pins the cancellation invariant the serve
// daemon depends on: a flight whose owner's context is canceled between
// planning and synthesis is resolved with the context error AND evicted
// from the shared table, so (a) a waiter already holding the flight,
// whose own context is live, neither hangs nor inherits the owner's
// cancellation — it synthesizes the design point itself and its result
// equals measuring the component alone — and (b) the next request for
// the signature registers a fresh flight and succeeds.
func TestAbandonedFlightEvicted(t *testing.T) {
	s := NewSession(tinyDesign(t))
	u := Unit{Top: "m"}
	var opts Options
	ws := getWorkspace()
	defer putWorkspace(ws)

	ctx, cancel := context.WithCancel(context.Background())
	ecache := &groupCache{}
	p := s.planUnit(ctx, u, opts, ecache)
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.owned == nil {
		t.Fatal("first plan did not own its flight")
	}
	// A second plan for the same signature waits on the first's flight.
	waiter := s.planUnit(context.Background(), u, opts, ecache)
	if waiter.owned != nil || waiter.flight != p.flight {
		t.Fatal("second plan did not join the first plan's flight")
	}

	// Cancel between planning and synthesis: the owner must resolve the
	// flight with the context error and evict it.
	cancel()
	s.synthesizeFlight(ctx, p, opts, ecache, ws)
	if !errors.Is(p.flight.err, context.Canceled) {
		t.Fatalf("abandoned flight resolved with %v, want context.Canceled", p.flight.err)
	}
	got, err := s.assembleUnit(context.Background(), u, waiter, opts)
	if err != nil {
		t.Fatalf("waiter with a live context on the abandoned flight: %v", err)
	}
	want, err := MeasureComponent(s.design, u.Top, u.UseAccounting, opts)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameMeasurement(got, want); diff != "" {
		t.Errorf("waiter on the abandoned flight vs MeasureComponent: %s", diff)
	}

	// The key must be gone from the table: a fresh plan owns a fresh
	// flight and measures normally.
	p2 := s.planUnit(context.Background(), u, opts, ecache)
	if p2.err != nil {
		t.Fatal(p2.err)
	}
	if p2.owned == nil {
		t.Fatal("abandoned flight was not evicted: fresh plan became a waiter on the dead entry")
	}
	s.synthesizeFlight(context.Background(), p2, opts, ecache, ws)
	res, err := s.assembleUnit(context.Background(), u, p2, opts)
	if err != nil {
		t.Fatalf("measurement after an abandoned flight: %v", err)
	}
	if res.Metrics == nil || res.Metrics.Cells == 0 {
		t.Fatalf("post-abandon measurement produced no metrics: %+v", res)
	}
}

// TestAssembleWaiterRespectsContext: a waiter whose own context dies
// while the flight it joined is still unresolved stops waiting and
// returns its context error (the flight, owned elsewhere, is not
// touched).
func TestAssembleWaiterRespectsContext(t *testing.T) {
	s := NewSession(tinyDesign(t))
	u := Unit{Top: "m"}
	var opts Options
	ws := getWorkspace()
	defer putWorkspace(ws)

	ecache := &groupCache{}
	owner := s.planUnit(context.Background(), u, opts, ecache)
	if owner.owned == nil {
		t.Fatal("first plan did not own its flight")
	}
	waiter := s.planUnit(context.Background(), u, opts, ecache)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.assembleUnit(ctx, u, waiter, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	// Resolve the owner's flight so the session ends consistent.
	s.synthesizeFlight(context.Background(), owner, opts, ecache, ws)
	if _, err := s.assembleUnit(context.Background(), u, owner, opts); err != nil {
		t.Fatal(err)
	}
}
