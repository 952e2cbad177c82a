package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans are recorded only from the benchmark's own files,
// around public calls; the program itself is not instrumented.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int    `json:"op"`     // operation id, -1 outside the timed loop
}

// opSpan names the root span of one timed operation.
const opSpan = "op"

// tracer keeps spans in memory for the length of a run. A nil tracer
// records nothing, which is how untraced runs (and the untraced half
// of a traced run) skip it. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id (no-op for -1).
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Op: op})
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, op int, fn func() error) error {
	id := t.begin(name, parent, op)
	defer t.end(id)
	return fn()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span, its duration minus the part of its
// interval its child spans cover. Children may overlap one another
// (parallel calls), so their intervals are merged before subtracting,
// and each is clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanSummary aggregates a run's spans: total milliseconds per span
// name, and the share of operation wall time no child span covers.
type spanSummary struct {
	ms           map[string]float64
	count        map[string]int
	ops          int     // traced operations
	unattributed float64 // uncovered op time ÷ op time
}

func summarize(spans []span) spanSummary {
	s := spanSummary{ms: map[string]float64{}, count: map[string]int{}}
	self := selfTimes(spans)
	var opNs, opSelf int64
	for i, sp := range spans {
		s.ms[sp.Name] += float64(sp.End-sp.Start) / 1e6
		s.count[sp.Name]++
		if sp.Name == opSpan && sp.Parent < 0 {
			s.ops++
			opNs += sp.End - sp.Start
			opSelf += self[i]
		}
	}
	s.unattributed = ratio(float64(opSelf), float64(opNs))
	return s
}

// perOp returns the total milliseconds of spans named name per traced
// operation.
func (s spanSummary) perOp(name string) float64 {
	return ratio(s.ms[name], float64(s.ops))
}
