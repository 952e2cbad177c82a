package measure

import (
	"bytes"
	"errors"
	"fmt"
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

// metricsOnly frames the metric vector the signature records embed, so its encoding round-trips on its own.
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
// accounting measurement writes them. The search carries no counters:
// the codec does not store them.
func sampleRecords() (*searchResult, *sigRecord) {
	m := &Metrics{Cells: 7, FreqMHz: 1.5, PowerS: 0.25}
	tim := timing.Summary{CriticalNs: 0.1 + 0.2, NearCritical: 5}
	hash := "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	return &searchResult{params: map[string]int64{"W": 4, "DEPTH": -1, "AW": 1 << 40}},
		&sigRecord{
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
	got := roundtrip(t, searchCodec, want)
	if diff := compareSearches(want, got); diff != "" {
		t.Errorf("round-trip changed the search: %s", diff)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("search round-trip: got %+v, want %+v", got, want)
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
	if string(searchCodec.Append(nil, want)) != string(searchCodec.Append(nil, want)) {
		t.Error("search encoding not deterministic")
	}
	// The counters describe a run: they are neither stored nor decoded.
	counted := &searchResult{params: want.params, hits: 7, misses: 3}
	if !bytes.Equal(searchCodec.Append(nil, counted), searchCodec.Append(nil, want)) {
		t.Error("search counters reached the encoding")
	}
}

// TestRecordCodecNilFields pins the sparse shape: a search over a top
// with no parameters decodes to an empty map, never a nil one — what
// the search itself returns (elab.ResolveParams) — so a warm result
// equals a cache-off one.
func TestRecordCodecNilFields(t *testing.T) {
	got := roundtrip(t, searchCodec, &searchResult{params: map[string]int64{}})
	if got.params == nil || len(got.params) != 0 {
		t.Errorf("empty search decoded as %#v, want an empty map", got.params)
	}
}

// TestRecordCodecHostileInput: every truncation of either record is
// rejected as corrupt, never decoded short — in particular never to a
// sig record without metrics or a search missing a parameter — and a
// search of another structure version, or with a duplicate or
// unsorted parameter, is corrupt too.
func TestRecordCodecHostileInput(t *testing.T) {
	search, sig := sampleRecords()
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
	decodeSearch := func(r *codec.Reader) error {
		_, err := searchCodec.Decode(r)
		return err
	}
	check("search", searchCodec.Append(nil, search), decodeSearch)
	check("sig", sigRecordCodec.Append(nil, sig), func(r *codec.Reader) error {
		_, err := sigRecordCodec.Decode(r)
		return err
	})

	pair := func(version byte, names ...string) []byte {
		dst := codec.AppendUvarint([]byte{version}, uint64(len(names)))
		for _, name := range names {
			dst = codec.AppendVarint(codec.AppendString(dst, name), 1)
		}
		return dst
	}
	for name, payload := range map[string][]byte{
		"wrong version": pair(searchVersion+1, "A", "B"),
		"duplicate":     pair(searchVersion, "A", "A"),
		"unsorted":      pair(searchVersion, "B", "A"),
	} {
		if err := decodeSearch(codec.NewReader(payload)); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: decode error %v, want ErrCorrupt", name, err)
		}
	}
	if err := decodeSearch(codec.NewReader(pair(searchVersion, "A", "B"))); err != nil {
		t.Errorf("well-formed search: %v", err)
	}
}

// fuzzRecord checks one codec's decode of hostile bytes: an error
// wrapping ErrCorrupt, or a record that passes valid and whose
// re-encode decodes and re-encodes byte-identically. It never panics.
func fuzzRecord[T any](t *testing.T, cd codec.Codec[T], valid func(T) string, data []byte) {
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
	if msg := valid(rec); msg != "" {
		t.Fatalf("%s: decoded %s", cd.Name, msg)
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

// validSig rejects a sig record without metrics.
func validSig(rec *sigRecord) string {
	if rec.Metrics == nil {
		return "a sig record without metrics"
	}
	return ""
}

// validSearch rejects a search whose map lost or merged a parameter
// the payload listed: the payload's count must equal the map's size.
func validSearch(data []byte) func(*searchResult) string {
	return func(sr *searchResult) string {
		r := codec.NewReader(data)
		r.Byte()
		if n := r.Count(2); n != len(sr.params) {
			return fmt.Sprintf("a search of %d parameters from a payload listing %d", len(sr.params), n)
		}
		if sr.hits != 0 || sr.misses != 0 {
			return "a search with counters"
		}
		return ""
	}
}

// FuzzDecodeRecord feeds hostile bytes to both record decoders (the
// payloads of "search" and "sig" cache entries). A CRC-valid entry
// with any payload must degrade to a recompute, never to a sig record
// that later panics at a nil Metrics, nor to a search with a missing
// or duplicate parameter.
func FuzzDecodeRecord(f *testing.F) {
	search, sig := sampleRecords()
	f.Add(searchCodec.Append(nil, search))
	f.Add(sigRecordCodec.Append(nil, sig))
	f.Add(searchCodec.Append(nil, &searchResult{params: map[string]int64{}}))
	// A duplicate parameter, and the previous sig layout: a clear
	// metrics-presence bool after the version byte.
	f.Add([]byte{searchVersion, 2, 1, 'A', 2, 1, 'A', 4})
	f.Add([]byte{sigVersion, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRecord(t, searchCodec, validSearch(data), data)
		fuzzRecord(t, sigRecordCodec, validSig, data)
	})
}
