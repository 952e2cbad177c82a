package measure

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/timing"
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

// sampleRecords returns a populated record of each kind, as a cold
// accounting measurement writes them.
func sampleRecords() (*componentRecord, *sigRecord) {
	m := &Metrics{Cells: 7, FreqMHz: 1.5, PowerS: 0.25}
	tim := timing.Summary{CriticalNs: 0.1 + 0.2, NearCritical: 5}
	hash := "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	return &componentRecord{
			Metrics:          m,
			UniqueModules:    []string{"a", "b", "c"},
			MinimizedParams:  map[string]int64{"W": 4, "DEPTH": -1},
			InstanceCount:    9,
			DedupedInstances: 3,
			NetlistHash:      hash,
			Timing:           tim,
		}, &sigRecord{
			Metrics:       m,
			InstanceCount: 9,
			Deduped:       3,
			NetlistHash:   hash,
			Timing:        tim,
		}
}

// TestRecordCodecRoundtrip pins both record shapes through
// encode/decode.
func TestRecordCodecRoundtrip(t *testing.T) {
	want, wantSig := sampleRecords()
	got := roundtrip(t, recordCodec, want)
	if diff := compareRecords(want, got); diff != "" {
		t.Errorf("round-trip changed the record: %s", diff)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("record round-trip: got %+v, want %+v", got, want)
	}
	gotSig := roundtrip(t, sigRecordCodec, wantSig)
	if diff := compareSigRecords(wantSig, gotSig); diff != "" {
		t.Errorf("round-trip changed the sig record: %s", diff)
	}
	if !reflect.DeepEqual(gotSig, wantSig) {
		t.Errorf("sig record round-trip: got %+v, want %+v", gotSig, wantSig)
	}
	// Encoding must be byte-stable across repeated encodes (sorted map
	// order): verify mode and golden warm runs depend on it.
	if string(recordCodec.Append(nil, want)) != string(recordCodec.Append(nil, want)) {
		t.Error("record encoding not deterministic")
	}
}

// TestRecordCodecNilFields pins gob-parity for the sparse shape: empty
// slices and maps must come back nil, not empty.
func TestRecordCodecNilFields(t *testing.T) {
	want := &componentRecord{Metrics: &Metrics{}}
	got := roundtrip(t, recordCodec, want)
	if got.UniqueModules != nil || got.MinimizedParams != nil {
		t.Errorf("empty fields decoded non-nil: %+v", got)
	}
	if got.Metrics == nil {
		t.Error("metrics lost")
	}
}

// TestRecordCodecHostileInput: every truncation of either record is
// rejected as corrupt, never decoded short — in particular never to a
// record without metrics.
func TestRecordCodecHostileInput(t *testing.T) {
	rec, sig := sampleRecords()
	check := func(name string, buf []byte, decode func(*codec.Reader) error) {
		for cut := 0; cut < len(buf); cut++ {
			r := codec.NewReader(buf[:cut])
			if err := decode(r); err == nil {
				if err := r.Finish(); err == nil {
					t.Fatalf("%s: truncation at %d accepted", name, cut)
				}
			} else if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("%s: truncation at %d: %v does not wrap ErrCorrupt", name, cut, err)
			}
		}
	}
	check("component", recordCodec.Append(nil, rec), func(r *codec.Reader) error {
		_, err := recordCodec.Decode(r)
		return err
	})
	check("sig", sigRecordCodec.Append(nil, sig), func(r *codec.Reader) error {
		_, err := sigRecordCodec.Decode(r)
		return err
	})
}

// fuzzRecord checks one codec's decode of hostile bytes: an error
// wrapping ErrCorrupt, or a record with metrics whose re-encode
// decodes and re-encodes byte-identically. It never panics.
func fuzzRecord[T any](t *testing.T, cd codec.Codec[T], metrics func(T) *Metrics, data []byte) {
	r := codec.NewReader(data)
	rec, err := cd.Decode(r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: decode error %v does not wrap ErrCorrupt", cd.Name, err)
		}
		return
	}
	if metrics(rec) == nil {
		t.Fatalf("%s: decoded a record without metrics", cd.Name)
	}
	buf := cd.Append(nil, rec)
	again, err := cd.Decode(codec.NewReader(buf))
	if err != nil {
		t.Fatalf("%s: re-decode of re-encoded record failed: %v", cd.Name, err)
	}
	if !bytes.Equal(buf, cd.Append(nil, again)) {
		t.Errorf("%s: re-encode not byte-identical", cd.Name)
	}
}

// FuzzDecodeRecord feeds hostile bytes to both record decoders (the
// payloads of "component" and "sig" cache entries). A CRC-valid entry
// with any payload must degrade to a recompute, never to a record that
// later panics at a nil Metrics.
func FuzzDecodeRecord(f *testing.F) {
	rec, sig := sampleRecords()
	f.Add(recordCodec.Append(nil, rec))
	f.Add(sigRecordCodec.Append(nil, sig))
	f.Add(recordCodec.Append(nil, &componentRecord{Metrics: &Metrics{}}))
	// The previous layouts: a clear metrics-presence bool after the
	// version byte.
	f.Add([]byte{recordVersion, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{sigVersion, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRecord(t, recordCodec, func(r *componentRecord) *Metrics { return r.Metrics }, data)
		fuzzRecord(t, sigRecordCodec, func(r *sigRecord) *Metrics { return r.Metrics }, data)
	})
}
