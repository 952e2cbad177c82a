package cache

import (
	"bytes"
	"compress/flate"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
)

type payload struct {
	Name   string
	Values []int
}

// payloadCodec is the test type's explicit binary codec — the same
// shape every real cached type (measure records, metrics) provides.
var payloadCodec = codec.Codec[payload]{
	Name: "test.payload",
	Append: func(dst []byte, p payload) []byte {
		dst = codec.AppendString(dst, p.Name)
		dst = codec.AppendUvarint(dst, uint64(len(p.Values)))
		for _, v := range p.Values {
			dst = codec.AppendVarint(dst, int64(v))
		}
		return dst
	},
	Decode: func(r *codec.Reader) (payload, error) {
		var p payload
		p.Name = r.String()
		if n := r.Count(1); n > 0 {
			p.Values = make([]int, n)
			for i := range p.Values {
				p.Values[i] = int(r.Varint())
			}
		}
		return p, r.Err()
	},
}

var intCodec = codec.Codec[int]{
	Name:   "test.int",
	Append: func(dst []byte, v int) []byte { return codec.AppendVarint(dst, int64(v)) },
	Decode: func(r *codec.Reader) (int, error) { return int(r.Varint()), r.Err() },
}

func open(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyDerivation(t *testing.T) {
	if Key("a", "bc") == Key("ab", "c") {
		t.Error("length prefixing failed: shifted part boundaries collide")
	}
	if Key("x") != Key("x") {
		t.Error("key not deterministic")
	}
	if len(Key("x")) != 64 {
		t.Errorf("key is %d chars, want 64 hex", len(Key("x")))
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	c := open(t)
	key := Key("roundtrip")
	want := payload{Name: "n", Values: []int{1, 2, 3}}
	if err := Put(c, key, payloadCodec, want); err != nil {
		t.Fatal(err)
	}
	got, ok := Get(c, key, payloadCodec)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Name != want.Name || len(got.Values) != 3 || got.Values[2] != 3 {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if _, ok := Get(c, Key("other"), payloadCodec); ok {
		t.Error("hit on a key never put")
	}
}

// TestCompressedRoundtrip pins the block-compression path: an entry
// above the threshold must land on disk smaller than its payload,
// decode back identically, and be visible in the byte counters.
func TestCompressedRoundtrip(t *testing.T) {
	c := open(t)
	key := Key("compressed")
	want := payload{Name: strings.Repeat("wide-bus-net-name/", 64)}
	for i := 0; i < 4*CompressThreshold; i++ {
		want.Values = append(want.Values, i%7)
	}
	if err := Put(c, key, payloadCodec, want); err != nil {
		t.Fatal(err)
	}
	encoded := payloadCodec.Append(nil, want)
	if len(encoded) < CompressThreshold {
		t.Fatalf("test payload encodes to %d bytes, below the %d threshold", len(encoded), CompressThreshold)
	}
	info, err := os.Stat(c.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= int64(len(encoded)) {
		t.Errorf("compressed entry is %d bytes on disk for a %d-byte payload", info.Size(), len(encoded))
	}
	got, ok := Get(c, key, payloadCodec)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Name != want.Name || len(got.Values) != len(want.Values) {
		t.Errorf("decode mismatch: %d values, want %d", len(got.Values), len(want.Values))
	}
	for i := range got.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("value %d = %d, want %d", i, got.Values[i], want.Values[i])
		}
	}
	s := c.Stats()
	if s.BytesRaw <= s.BytesStored {
		t.Errorf("byte counters show no compression win: raw %d, stored %d", s.BytesRaw, s.BytesStored)
	}
	if s.DecodeNanos <= 0 {
		t.Error("decode time not accounted")
	}
}

// TestPutIfAbsent pins the skip-if-present contract: the second store
// of a key is a no-op (no write, no put counted), and a discarded
// entry is re-stored.
func TestPutIfAbsent(t *testing.T) {
	c := open(t)
	key := Key("absent")
	wrote, err := PutIfAbsent(c, key, intCodec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("first PutIfAbsent did not write")
	}
	wrote, err = PutIfAbsent(c, key, intCodec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if wrote {
		t.Error("PutIfAbsent rewrote an existing entry")
	}
	if got := c.Stats().Puts; got != 1 {
		t.Errorf("puts = %d after a skipped store, want 1", got)
	}
	if v, ok := Get(c, key, intCodec); !ok || v != 7 {
		t.Fatalf("Get = %d, %t after skipped store, want 7, true", v, ok)
	}
	c.discard(key)
	if wrote, err = PutIfAbsent(c, key, intCodec, 7); err != nil || !wrote {
		t.Fatalf("PutIfAbsent after discard = %t, %v, want a write", wrote, err)
	}
}

func TestKindKey(t *testing.T) {
	k := KindKey("sig", "a", "b")
	if !strings.HasPrefix(k, "sig-") {
		t.Errorf("KindKey = %q, want sig- prefix", k)
	}
	if KindOf(k) != "sig" {
		t.Errorf("KindOf(%q) = %q, want sig", k, KindOf(k))
	}
	if KindOf(Key("a", "b")) != "" {
		t.Error("plain keys should have empty kind")
	}
	// Same parts under different kinds are distinct entries.
	if KindKey("sig", "a") == KindKey("component", "a") {
		t.Error("kinds do not separate the key space")
	}
	// Kind tag must not collide with the kind-in-hash mixing.
	if strings.TrimPrefix(KindKey("sig", "a"), "sig-") == Key("a") {
		t.Error("kind not mixed into the hash")
	}
}

// TestKindStats pins the per-kind observability: runtime counters
// attribute hits/misses/puts to the key's kind, and the disk scan
// splits the footprint the same way.
func TestKindStats(t *testing.T) {
	c := open(t)
	sigKey := KindKey("sig", "s1")
	compKey := KindKey("component", "c1")
	plainKey := Key("p1")

	compute := func() (payload, error) { return payload{Name: "v"}, nil }
	for _, key := range []string{sigKey, compKey, plainKey} {
		if _, hit, err := Do(c, key, payloadCodec, compute, nil, nil); err != nil || hit {
			t.Fatalf("cold Do(%s): hit=%v err=%v", key, hit, err)
		}
	}
	if _, hit, err := Do(c, sigKey, payloadCodec, compute, nil, nil); err != nil || !hit {
		t.Fatalf("warm Do: hit=%v err=%v", hit, err)
	}
	if _, ok := Fetch(c, compKey, payloadCodec); !ok {
		t.Fatal("Fetch miss after put")
	}

	ks := c.KindStats()
	if got := ks["sig"]; got.Hits != 1 || got.Misses != 1 || got.Puts != 1 {
		t.Errorf("sig counters = %+v, want 1/1/1", got)
	}
	if got := ks["component"]; got.Hits != 1 || got.Misses != 1 || got.Puts != 1 {
		t.Errorf("component counters = %+v, want 1/1/1", got)
	}
	if got := ks[""]; got.Misses != 1 || got.Puts != 1 {
		t.Errorf("plain-key counters = %+v, want 1 miss / 1 put", got)
	}

	ds, err := c.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 3 {
		t.Fatalf("DiskStats entries = %d, want 3", ds.Entries)
	}
	for _, kind := range []string{"sig", "component", ""} {
		kd := ds.Kinds[kind]
		if kd.Entries != 1 || kd.Bytes <= 0 {
			t.Errorf("disk kind %q = %+v, want 1 entry with bytes", kind, kd)
		}
	}
}

func TestKindRows(t *testing.T) {
	ds := DiskStats{Kinds: map[string]KindDisk{
		"sig": {Entries: 2, Bytes: 100},
		"":    {Entries: 1, Bytes: 50},
	}}
	ks := map[string]KindCounters{
		"sig":      {Hits: 3, Misses: 1, Puts: 1},
		"depgraph": {Puts: 2},
	}
	rows := kindRows(ds, ks)
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3: %v", len(rows), rows)
	}
	// Sorted by kind: "" (plain) < depgraph < sig.
	if !strings.Contains(rows[0], "plain") {
		t.Errorf("row 0 = %q, want plain kind first", rows[0])
	}
	if !strings.Contains(rows[1], "depgraph") || !strings.Contains(rows[1], "2 puts") {
		t.Errorf("row 1 = %q, want depgraph puts", rows[1])
	}
	if !strings.Contains(rows[2], "75.0% hit rate") {
		t.Errorf("row 2 = %q, want 75.0%% hit rate", rows[2])
	}
}

func TestDiskStats(t *testing.T) {
	c := open(t)
	for i, name := range []string{"a", "b", "c"} {
		if err := Put(c, Key(name), payloadCodec, payload{Name: name, Values: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	// A stray non-entry file must not be counted.
	if err := os.WriteFile(c.dir+"/README", []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := c.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 3 {
		t.Errorf("DiskStats entries = %d, want 3", ds.Entries)
	}
	if ds.Bytes <= 0 {
		t.Errorf("DiskStats bytes = %d, want > 0", ds.Bytes)
	}
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c := open(t)
	key := Key("do")
	calls := 0
	compute := func() (payload, error) {
		calls++
		return payload{Name: "v"}, nil
	}
	v, hit, err := Do(c, key, payloadCodec, compute, nil, nil)
	if err != nil || hit || v.Name != "v" {
		t.Fatalf("first Do: v=%+v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = Do(c, key, payloadCodec, compute, nil, nil)
	if err != nil || !hit || v.Name != "v" {
		t.Fatalf("second Do: v=%+v hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", s)
	}
}

func TestNilCacheJustComputes(t *testing.T) {
	v, hit, err := Do(nil, Key("k"), intCodec, func() (int, error) { return 7, nil }, nil, nil)
	if v != 7 || hit || err != nil {
		t.Errorf("nil cache: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestCorruptedEntryFallsBackToRecompute drives every decode-failure
// surface of the v3 entry format — file-level damage, payload
// truncation, a flipped payload byte under an intact CRC field, a
// stale schema, a declared decompressed size past the bomb cap, and
// trailing garbage after a valid value — and asserts each one degrades
// to a recompute that repairs the entry, never an error or a bogus
// hit.
func TestCorruptedEntryFallsBackToRecompute(t *testing.T) {
	c := open(t)
	key := Key("corrupt")
	corruptions := map[string]func(p string) error{
		"garbage": func(p string) error { return os.WriteFile(p, []byte("not an entry at all"), 0o644) },
		"empty":   func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"truncated-payload": func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, data[:len(data)-3], 0o644)
		},
		"bad-crc": func(p string) error {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			data[len(data)-1] ^= 0x40 // flip a payload bit; header CRC now disagrees
			return os.WriteFile(p, data, 0o644)
		},
		"stale-schema": func(p string) error {
			entry := codec.EncodeEntry(nil, SchemaVersion+1, key,
				payloadCodec.Append(nil, payload{Name: "future"}), -1)
			return os.WriteFile(p, entry, 0o644)
		},
		"compression-bomb": func(p string) error {
			// Hand-assemble an envelope whose header declares a
			// decompressed size past the cap; the reader must reject it
			// before allocating anything.
			var fl bytes.Buffer
			w, err := flate.NewWriter(&fl, flate.BestSpeed)
			if err != nil {
				return err
			}
			w.Write(make([]byte, 1024))
			w.Close()
			entry := []byte(codec.EntryMagic)
			entry = codec.AppendUvarint(entry, SchemaVersion)
			entry = codec.AppendByte(entry, codec.CompressFlate)
			entry = codec.AppendString(entry, key)
			entry = codec.AppendUvarint(entry, codec.MaxDecodedLen+1)
			entry = codec.AppendUint32(entry, crc32.Checksum(fl.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
			entry = append(entry, fl.Bytes()...)
			return os.WriteFile(p, entry, 0o644)
		},
		"trailing-garbage": func(p string) error {
			// A valid payload followed by extra bytes re-framed into a
			// consistent envelope: the typed decode must insist the
			// payload is consumed exactly.
			body := payloadCodec.Append(nil, payload{Name: "good"})
			body = append(body, 0xEE, 0xEE)
			return os.WriteFile(p, codec.EncodeEntry(nil, SchemaVersion, key, body, -1), 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := Put(c, key, payloadCodec, payload{Name: "good", Values: []int{1, 2, 3}}); err != nil {
				t.Fatal(err)
			}
			if err := corrupt(c.path(key)); err != nil {
				t.Fatal(err)
			}
			v, hit, err := Do(c, key, payloadCodec, func() (payload, error) { return payload{Name: "recomputed"}, nil }, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hit || v.Name != "recomputed" {
				t.Errorf("corrupt entry served as hit: v=%+v hit=%v", v, hit)
			}
			// The recompute must repair the entry.
			got, ok := Get(c, key, payloadCodec)
			if !ok || got.Name != "recomputed" {
				t.Errorf("entry not repaired after recompute: %+v", got)
			}
			if err := os.Remove(c.path(key)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if s := c.Stats(); s.DecodeErrors == 0 {
		t.Error("corrupt entries not counted")
	}
}

func TestSchemaVersionBumpInvalidates(t *testing.T) {
	c := open(t)
	key := Key("schema")
	// Hand-write an entry with a future schema version at today's key:
	// the reader must ignore it (as it must ignore stale entries after
	// a real bump, whose keys also change).
	entry := codec.EncodeEntry(nil, SchemaVersion+1, key,
		payloadCodec.Append(nil, payload{Name: "future"}), -1)
	if err := os.WriteFile(c.path(key), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Get(c, key, payloadCodec); ok {
		t.Fatalf("entry with schema %d decoded by reader at schema %d", SchemaVersion+1, SchemaVersion)
	}
	if _, err := os.Stat(c.path(key)); !errors.Is(err, os.ErrNotExist) {
		t.Error("stale-schema entry not deleted")
	}
}

// TestKeyEchoMismatch covers a renamed entry file: the envelope echoes
// the key it was written under, so serving it under another name must
// fail and delete the misplaced file.
func TestKeyEchoMismatch(t *testing.T) {
	c := open(t)
	orig, moved := Key("original"), Key("moved")
	if err := Put(c, orig, payloadCodec, payload{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.path(orig), c.path(moved)); err != nil {
		t.Fatal(err)
	}
	if _, ok := Get(c, moved, payloadCodec); ok {
		t.Error("entry served under a key it was not written for")
	}
	if _, err := os.Stat(c.path(moved)); !errors.Is(err, os.ErrNotExist) {
		t.Error("misplaced entry not deleted")
	}
}

func TestSingleFlight(t *testing.T) {
	c := open(t)
	key := Key("flight")
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]payload, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := Do(c, key, payloadCodec, func() (payload, error) {
				calls.Add(1)
				<-gate // hold the flight open until everyone has joined
				return payload{Name: "shared"}, nil
			}, nil, nil)
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = v, hit
		}(i)
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("compute ran %d times under concurrent Do, want 1", got)
	}
	for i := range results {
		if results[i].Name != "shared" {
			t.Errorf("goroutine %d got %+v", i, results[i])
		}
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := open(t)
	key := Key("err")
	boom := errors.New("boom")
	_, _, err := Do(c, key, intCodec, func() (int, error) { return 0, boom }, nil, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := Do(c, key, intCodec, func() (int, error) { return 42, nil }, nil, nil)
	if err != nil || hit || v != 42 {
		t.Errorf("after failed compute: v=%d hit=%v err=%v", v, hit, err)
	}
}

func TestVerifyMode(t *testing.T) {
	c := open(t)
	c.SetVerify(true)
	key := Key("verify")
	if err := Put(c, key, payloadCodec, payload{Name: "stored", Values: []int{1}}); err != nil {
		t.Fatal(err)
	}
	v, hit, err := Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "stored", Values: []int{1}}, nil
	}, nil, nil)
	if err != nil || !hit || v.Name != "stored" {
		t.Fatalf("matching verify: v=%+v hit=%v err=%v", v, hit, err)
	}
	_, _, err = Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "different", Values: []int{1}}, nil
	}, nil, nil)
	if !errors.Is(err, ErrVerifyMismatch) {
		t.Fatalf("mismatching verify returned %v, want ErrVerifyMismatch", err)
	}
	s := c.Stats()
	if s.VerifyChecks != 2 || s.VerifyMismatches != 1 {
		t.Errorf("stats = %+v, want 2 checks / 1 mismatch", s)
	}
}

func TestDoComparator(t *testing.T) {
	c := open(t)
	c.SetVerify(true)
	key := Key("doeq")
	if err := Put(c, key, payloadCodec, payload{Name: "x", Values: []int{1}}); err != nil {
		t.Fatal(err)
	}
	// Comparator that only inspects Name: a Values difference passes.
	eq := func(cached, fresh payload) string {
		if cached.Name != fresh.Name {
			return "Name differs"
		}
		return ""
	}
	_, hit, err := Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "x", Values: []int{999}}, nil
	}, eq, nil)
	if err != nil || !hit {
		t.Fatalf("comparator verify: hit=%v err=%v", hit, err)
	}
	_, _, err = Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "y"}, nil
	}, eq, nil)
	if !errors.Is(err, ErrVerifyMismatch) {
		t.Fatalf("comparator mismatch returned %v", err)
	}
}

// TestDiskStatsSeesExternalWrites: DiskStats scans the directory on
// every call, so entries another process writes into a shared cache
// directory show up in the next report.
func TestDiskStatsSeesExternalWrites(t *testing.T) {
	c := open(t)
	if err := Put(c, KindKey("syn", "a"), payloadCodec, payload{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if ds, err := c.DiskStats(); err != nil || ds.Entries != 1 {
		t.Fatalf("DiskStats = %+v, %v; want 1 entry", ds, err)
	}
	other, err := Open(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if err := Put(other, KindKey("syn", "b"), payloadCodec, payload{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	ds, err := c.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 2 || ds.Kinds["syn"].Entries != 2 {
		t.Fatalf("DiskStats after another writer's Put = %+v, want 2 syn entries", ds)
	}
}

// TestSnapshot covers the warm-start key-set snapshot: present keys
// answer true, absent ones false, a nil snapshot (no cache scanned)
// conservatively answers true for everything, and writes after the
// snapshot do not appear in it (it is a point-in-time hint).
func TestSnapshot(t *testing.T) {
	c := open(t)
	if err := Put(c, Key("present"), payloadCodec, payload{Name: "p"}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 1 {
		t.Fatalf("snapshot len = %d, want 1", snap.Len())
	}
	if !snap.MayContain(Key("present")) {
		t.Fatal("snapshot misses a present key")
	}
	if snap.MayContain(Key("absent")) {
		t.Fatal("snapshot claims an absent key")
	}
	if err := Put(c, Key("later"), payloadCodec, payload{Name: "l"}); err != nil {
		t.Fatal(err)
	}
	if snap.MayContain(Key("later")) {
		t.Fatal("snapshot sees a write made after it was taken")
	}
	var nilSnap *Snapshot
	if !nilSnap.MayContain(Key("anything")) {
		t.Fatal("nil snapshot must answer true (probe disk)")
	}
}

// TestDoSnapshotHint pins the batched warm-start read path: with a
// snapshot that says the key is absent, Do computes without touching the
// entry file; with the key present it hits as usual; and verify mode
// ignores the hint entirely so every hit is still re-checked. The
// read elision is observed directly: a corrupt entry file planted
// under a hinted-absent key must never be decoded (no decode error),
// where an unhinted lookup would read it and record one.
func TestDoSnapshotHint(t *testing.T) {
	c := open(t)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	key := Key("hinted")
	noEq := func(cached, fresh payload) string { return "" }

	// Plant garbage where the entry would live, post-snapshot. A read
	// would discard it and count a DecodeError; the hint elides the read
	// so the file is simply overwritten by the computed value's Put.
	if err := os.WriteFile(c.path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, hit, err := Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "fresh"}, nil
	}, noEq, snap)
	if err != nil || hit || v.Name != "fresh" {
		t.Fatalf("hinted-absent Do: v=%+v hit=%v err=%v", v, hit, err)
	}
	if s := c.Stats(); s.DecodeErrors != 0 {
		t.Fatalf("hinted-absent lookup read the entry file (%d decode errors), want the read elided", s.DecodeErrors)
	}

	// A fresh snapshot sees the key: normal hit path.
	snap2, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v, hit, err = Do(c, key, payloadCodec, func() (payload, error) {
		t.Fatal("compute ran despite a hit")
		return payload{}, nil
	}, noEq, snap2)
	if err != nil || !hit || v.Name != "fresh" {
		t.Fatalf("hinted-present Do: v=%+v hit=%v err=%v", v, hit, err)
	}

	// Verify mode overrides the hint: even a snapshot that says absent
	// must not suppress the consistency check's read-and-compare.
	c.SetVerify(true)
	defer c.SetVerify(false)
	mismatches := 0
	_, _, err = Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "fresh"}, nil
	}, func(cached, fresh payload) string {
		mismatches++ // called means the cached entry was read
		return ""
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if mismatches != 1 {
		t.Fatal("verify mode skipped the cached read on a hinted-absent key")
	}
}
