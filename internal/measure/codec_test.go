package measure

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/designs"
	"repro/internal/synth"
)

func roundtrip[T any](t *testing.T, cd codec.Codec[T], v T) T {
	t.Helper()
	buf := cd.Append(nil, v)
	r := codec.NewReader(buf)
	got, err := cd.Decode(r)
	if err != nil {
		t.Fatalf("%s: decode: %v", cd.Name, err)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("%s: %v", cd.Name, err)
	}
	return got
}

// metricsOnly frames the metric vector the component and signature
// records embed, so its encoding round-trips on its own.
var metricsOnly = codec.Codec[*Metrics]{Name: "measure.Metrics", Append: appendMetrics, Decode: decodeMetrics}

func TestMetricsCodecRoundtrip(t *testing.T) {
	want := &Metrics{
		Stmts: 12, LoC: 340, FanInLC: 99, FanInLCExact: 101,
		Nets: 2048, Cells: 1500, FFs: 128,
		FreqMHz: 123.456789, AreaL: 0.1 + 0.2, AreaS: math.SmallestNonzeroFloat64,
		PowerD: 1e-9, PowerS: 55.5,
	}
	got := roundtrip(t, metricsOnly, want)
	if *got != *want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if got := roundtrip(t, metricsOnly, &Metrics{}); *got != (Metrics{}) {
		t.Errorf("zero metrics round-trip: %+v", got)
	}
}

// TestRecordCodecRoundtrip pins the full component-record shape,
// including a real synthesized netlist, through encode/decode.
func TestRecordCodecRoundtrip(t *testing.T) {
	c, err := designs.ByLabel("RAT-Standard")
	if err != nil {
		t.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, c.Top, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := &componentRecord{
		Metrics:          &Metrics{Cells: 7, FreqMHz: 1.5},
		UniqueModules:    []string{"a", "b", "c"},
		MinimizedParams:  map[string]int64{"W": 4, "DEPTH": -1},
		InstanceCount:    9,
		DedupedInstances: 3,
		Optimized:        res.Optimized,
	}
	got := roundtrip(t, recordCodec, want)
	if diff := compareRecords(want, got); diff != "" {
		t.Errorf("round-trip changed the record: %s", diff)
	}
	if !reflect.DeepEqual(got.UniqueModules, want.UniqueModules) {
		t.Errorf("UniqueModules = %v", got.UniqueModules)
	}
	if got.Optimized.Hash() != res.Optimized.Hash() {
		t.Error("optimized netlist hash changed")
	}
	// Encoding must be byte-stable across repeated encodes (sorted map
	// order): verify mode and golden warm runs depend on it.
	if string(recordCodec.Append(nil, want)) != string(recordCodec.Append(nil, want)) {
		t.Error("record encoding not deterministic")
	}
}

// TestRecordCodecNilFields pins gob-parity for the sparse shape: empty
// slices/maps and absent netlist must come back nil, not empty.
func TestRecordCodecNilFields(t *testing.T) {
	want := &componentRecord{Metrics: &Metrics{}}
	got := roundtrip(t, recordCodec, want)
	if got.UniqueModules != nil || got.MinimizedParams != nil || got.Optimized != nil {
		t.Errorf("empty fields decoded non-nil: %+v", got)
	}
	if got.Metrics == nil {
		t.Error("metrics lost")
	}
}

func TestRecordCodecHostileInput(t *testing.T) {
	buf := recordCodec.Append(nil, &componentRecord{Metrics: &Metrics{Cells: 1}})
	for cut := 0; cut < len(buf); cut++ {
		r := codec.NewReader(buf[:cut])
		if _, err := recordCodec.Decode(r); err == nil {
			if err := r.Finish(); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		} else if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("truncation at %d: %v does not wrap ErrCorrupt", cut, err)
		}
	}
}
