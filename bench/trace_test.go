package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: opSpan, Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "a.x", Start: 12, End: 18, Parent: 1},
		{Name: opSpan, Start: 200, End: 300, Parent: -1}, // nothing covers it
	}
	want := []int64{
		100 - (50 - 10) - (100 - 90),
		20 - 6,
		30,
		30,
		6,
		100,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	s := summarize(spans)
	if s.ops != 2 || s.unattributed != float64(want[0]+want[5])/200 {
		t.Errorf("summary: %d ops, unattributed %v", s.ops, s.unattributed)
	}
	if s.perOp("a") != 20.0/1e6/2 {
		t.Errorf("perOp(a) = %v ms", s.perOp("a"))
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer: id %d, spans %v", id, tr.snapshot())
	}
}
