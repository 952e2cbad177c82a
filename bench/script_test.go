package main

import (
	"reflect"
	"testing"
)

func TestEditScriptSeeded(t *testing.T) {
	a, b := editScript(7, 500), editScript(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two edit scripts")
	}
	if reflect.DeepEqual(a, editScript(8, 500)) {
		t.Fatal("seeds 7 and 8 gave the same edit script")
	}
	if reflect.DeepEqual(a, newEditStream(7, tenantBStream).take(500)) {
		t.Fatal("the edit loop and tenant B got the same edits")
	}
	var count [numEditKinds]int
	comps := map[int]int{}
	for i, e := range a {
		count[e.kind]++
		if e.kind == editLocalNeutral {
			comps[e.comp]++
		}
		if (i+1)%deckSize != 0 {
			continue
		}
		// Every block of deckSize saves holds the exact mix.
		for k, pct := range editMix {
			if want := (i + 1) * pct / 100; count[k] != want {
				t.Errorf("after %d saves: %d %s, want %d", i+1, count[k], editKindNames[k], want)
			}
		}
	}
	// 200 local-neutral edits deal the 18 components in whole rounds of
	// 18 plus a partial one: every component 11 or 12 times.
	for c, n := range comps {
		if n < 11 || n > 12 {
			t.Errorf("component %d edited %d times", c, n)
		}
	}
}

func TestScheduleSeeded(t *testing.T) {
	a, b := schedule(7, 0, 100, 300), schedule(7, 0, 100, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 0, 100, 300)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, 1, 100, 300)) {
		t.Fatal("two steps of one run gave the same schedule")
	}
	remeasures := 0
	for i, s := range a {
		if i > 0 && s.at < a[i-1].at {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, s.at, i-1, a[i-1].at)
		}
		if s.remeasure {
			remeasures++
		}
	}
	if remeasures != 150 {
		t.Errorf("%d of 300 requests are tenant B's, want 150", remeasures)
	}
	// 300 arrivals at 100 req/s span about three seconds.
	if end := a[len(a)-1].at.Seconds(); end < 2 || end > 4 {
		t.Errorf("300 arrivals at 100 req/s end at %.2f s", end)
	}
}
