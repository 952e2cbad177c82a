package cache

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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
	return reopen(t, t.TempDir())
}

// reopen opens a new handle on dir, as another process would.
func reopen(t testing.TB, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// segments lists dir's segment files in scan order.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// onlySegment returns the path of the one segment dir holds.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments %v, want exactly one", segs)
	}
	return segs[0]
}

// frame frames an envelope as one segment record.
func frame(env []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(env))), env...)
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

// TestWarmGetAllocs pins the allocations of a warm Get of a small
// record: the key echo is compared in place, not copied, so what is
// left is the one Reader handed to the value's decoder. The race
// detector makes sync.Pool drop items at random, so the count only
// holds without it.
func TestWarmGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c := open(t)
	key := KindKey("component", "warm")
	if err := Put(c, key, intCodec, 42); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if v, ok := Get(c, key, intCodec); !ok || v != 42 {
			t.Fatalf("Get = %d, %v; want 42, true", v, ok)
		}
	})
	if allocs > 1 {
		t.Errorf("warm Get: %.0f allocations, want at most 1", allocs)
	}
}

// TestPutLeavesNoTempFile: Puts append to the handle's one segment,
// and a compacting Open merges segments through a temp file it renames
// away. Neither leaves a temp file or a per-entry file behind: the
// directory holds segments only.
func TestPutLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	for i := range compactSegments + 1 {
		if err := Put(reopen(t, dir), Key("ok", fmt.Sprint(i)), intCodec, i); err != nil {
			t.Fatal(err)
		}
	}
	reopen(t, dir) // past compactSegments: compacts
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), segmentExt) {
		t.Errorf("directory holds %v, want one compacted segment", entries)
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
	info, err := os.Stat(onlySegment(t, c.Dir()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= int64(len(encoded)) {
		t.Errorf("compressed record is %d bytes on disk for a %d-byte payload", info.Size(), len(encoded))
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

// TestKeysMatchStreamedDefinition pins Key and KindKey to their
// definition, hashed part by part: SHA-256 over the little-endian
// schema version, then each part as its little-endian length and its
// bytes, KindKey's parts led by "kind=<kind>". Keys name records on
// disk, so the one-buffer derivation must not move one. Short parts
// take the stack buffer, long ones the heap.
func TestKeysMatchStreamedDefinition(t *testing.T) {
	streamed := func(parts ...string) string {
		h := sha256.New()
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(SchemaVersion))
		h.Write(n[:])
		for _, p := range parts {
			binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
			h.Write(n[:])
			h.Write([]byte(p))
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	long := strings.Repeat("module m; endmodule\n", 100)
	for _, parts := range [][]string{nil, {""}, {"a", "bc"}, {"ab", "c"}, {long}, {"x", long, "y"}} {
		if got, want := Key(parts...), streamed(parts...); got != want {
			t.Errorf("Key(%d parts) = %s, want %s", len(parts), got, want)
		}
		if got, want := KindKey("sig", parts...), "sig-"+streamed(append([]string{"kind=sig"}, parts...)...); got != want {
			t.Errorf("KindKey(sig, %d parts) = %s, want %s", len(parts), got, want)
		}
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
		if _, hit, err := Do(c, key, payloadCodec, compute, nil); err != nil || hit {
			t.Fatalf("cold Do(%s): hit=%v err=%v", key, hit, err)
		}
	}
	if _, hit, err := Do(c, sigKey, payloadCodec, compute, nil); err != nil || !hit {
		t.Fatalf("warm Do: hit=%v err=%v", hit, err)
	}
	if _, ok := Get(c, compKey, payloadCodec); !ok {
		t.Fatal("Get miss after put")
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
	// Stray files — a README, an entry file of the old one-file-per-entry
	// layout — are neither read nor counted.
	for _, name := range []string{"README", Key("d") + ".ucx"} {
		if err := os.WriteFile(filepath.Join(c.dir, name), []byte("not a segment"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := reopen(t, c.dir).DiskStats()
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
	v, hit, err := Do(c, key, payloadCodec, compute, nil)
	if err != nil || hit || v.Name != "v" {
		t.Fatalf("first Do: v=%+v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = Do(c, key, payloadCodec, compute, nil)
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
	v, hit, err := Do(nil, Key("k"), intCodec, func() (int, error) { return 7, nil }, nil)
	if v != 7 || hit || err != nil {
		t.Errorf("nil cache: v=%d hit=%v err=%v", v, hit, err)
	}
}

// TestCorruptedEntryFallsBackToRecompute drives every decode-failure
// surface of a segment record — file-level damage, a torn tail, a
// flipped payload byte under an intact CRC field, a stale schema, a
// declared decompressed size past the bomb cap, and trailing garbage
// after a valid value — and asserts each one degrades to a recompute
// whose record the writing handle and a later Open both read back,
// never an error or a bogus hit.
func TestCorruptedEntryFallsBackToRecompute(t *testing.T) {
	key := Key("corrupt")
	corruptions := map[string]func(p string) error{
		"garbage": func(p string) error { return os.WriteFile(p, []byte("not a segment at all"), 0o644) },
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
			return os.WriteFile(p, frame(entry), 0o644)
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
			return os.WriteFile(p, frame(entry), 0o644)
		},
		"trailing-garbage": func(p string) error {
			// A valid payload followed by extra bytes re-framed into a
			// consistent envelope: the typed decode must insist the
			// payload is consumed exactly.
			body := payloadCodec.Append(nil, payload{Name: "good"})
			body = append(body, 0xEE, 0xEE)
			return os.WriteFile(p, frame(codec.EncodeEntry(nil, SchemaVersion, key, body, -1)), 0o644)
		},
	}
	var decodeErrs int64
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := Put(reopen(t, dir), key, payloadCodec, payload{Name: "good", Values: []int{1, 2, 3}}); err != nil {
				t.Fatal(err)
			}
			if err := corrupt(onlySegment(t, dir)); err != nil {
				t.Fatal(err)
			}
			c := reopen(t, dir)
			v, hit, err := Do(c, key, payloadCodec, func() (payload, error) { return payload{Name: "recomputed"}, nil }, nil)
			if err != nil {
				t.Fatal(err)
			}
			if hit || v.Name != "recomputed" {
				t.Errorf("corrupt entry served as hit: v=%+v hit=%v", v, hit)
			}
			// The recompute must repair the entry, for this handle and
			// for the next Open.
			for _, h := range []*Cache{c, reopen(t, dir)} {
				if got, ok := Get(h, key, payloadCodec); !ok || got.Name != "recomputed" {
					t.Errorf("entry not repaired after recompute: %+v", got)
				}
			}
			decodeErrs += c.Stats().DecodeErrors
		})
	}
	if decodeErrs == 0 {
		t.Error("corrupt entries not counted")
	}
}

// TestSchemaVersionBumpInvalidates: a record with another schema
// version at today's key is skipped, never decoded (as stale records
// must be after a real bump, whose keys also change), and counted as
// dead, so the Open that skipped it also compacts it away.
func TestSchemaVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	key := Key("schema")
	entry := codec.EncodeEntry(nil, SchemaVersion+1, key,
		payloadCodec.Append(nil, payload{Name: "future"}), -1)
	if err := os.WriteFile(filepath.Join(dir, "0"+segmentExt), frame(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	c := reopen(t, dir)
	if _, ok := Get(c, key, payloadCodec); ok {
		t.Fatalf("entry with schema %d decoded by reader at schema %d", SchemaVersion+1, SchemaVersion)
	}
	if s := c.Stats(); s.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1 (the stale record)", s.DecodeErrors)
	}
	if segs := segments(t, dir); len(segs) != 0 {
		t.Errorf("stale-schema record not compacted away: %v", segs)
	}
}

// TestKeyEchoMismatch: the envelope echoes the key it was written
// under, and a read checks the echo against the key it looked up. A
// record whose bytes change under an open handle to another key's
// (here the key echo is rewritten in place) fails that read and is
// dropped; a later Open indexes it under the key it now echoes.
func TestKeyEchoMismatch(t *testing.T) {
	c := open(t)
	orig, moved := Key("original"), Key("moved")
	if err := Put(c, orig, payloadCodec, payload{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	seg := onlySegment(t, c.Dir())
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[bytes.Index(data, []byte(orig)):], moved)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := Get(c, orig, payloadCodec); ok {
		t.Error("record served under a key it does not echo")
	}
	if s := c.Stats(); s.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1", s.DecodeErrors)
	}
	if _, ok := Get(c, orig, payloadCodec); ok {
		t.Error("dropped record read again")
	}
	again := reopen(t, c.Dir())
	if _, ok := Get(again, orig, payloadCodec); ok {
		t.Error("reopened cache serves the rewritten record under its old key")
	}
	if got, ok := Get(again, moved, payloadCodec); !ok || got.Name != "v" {
		t.Errorf("reopened cache lost the record under its echoed key: %+v, %v", got, ok)
	}
}

// TestCompaction: past either bound — more than compactSegments
// segments, or more than one dead record in compactDeadShare — Open
// merges the segments into one that keeps every live record (the
// latest of each key) and nothing else.
func TestCompaction(t *testing.T) {
	check := func(t *testing.T, dir string, want map[string]int) {
		t.Helper()
		c := reopen(t, dir)
		if segs := segments(t, dir); len(segs) != 1 {
			t.Fatalf("segments after compaction %v, want one", segs)
		}
		for _, h := range []*Cache{c, reopen(t, dir)} {
			for key, v := range want {
				if got, ok := Get(h, key, intCodec); !ok || got != v {
					t.Errorf("key %s after compaction: %d, %v; want %d", key, got, ok, v)
				}
			}
			if ds, _ := h.DiskStats(); ds.Entries != len(want) {
				t.Errorf("%d entries indexed after compaction, want %d", ds.Entries, len(want))
			}
			if s := h.Stats(); s.DecodeErrors != 0 {
				t.Errorf("%d decode errors after compaction", s.DecodeErrors)
			}
		}
	}
	t.Run("segment-count", func(t *testing.T) {
		dir := t.TempDir()
		want := map[string]int{}
		for i := range compactSegments + 1 {
			c := reopen(t, dir)
			for _, key := range []string{Key("seg", fmt.Sprint(i)), KindKey("sig", fmt.Sprint(i))} {
				if err := Put(c, key, intCodec, i); err != nil {
					t.Fatal(err)
				}
				want[key] = i
			}
		}
		if n := len(segments(t, dir)); n != compactSegments+1 {
			t.Fatalf("%d segments before compaction, want %d", n, compactSegments+1)
		}
		check(t, dir, want)
	})
	t.Run("dead-share", func(t *testing.T) {
		dir := t.TempDir()
		c := reopen(t, dir)
		for i := range compactDeadShare {
			if err := Put(c, Key("rewritten"), intCodec, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := Put(c, Key("once"), intCodec, 7); err != nil {
			t.Fatal(err)
		}
		before, err := os.Stat(onlySegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		check(t, dir, map[string]int{Key("rewritten"): compactDeadShare - 1, Key("once"): 7})
		after, err := os.Stat(onlySegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		if after.Size() >= before.Size() {
			t.Errorf("compacted segment is %d bytes, was %d", after.Size(), before.Size())
		}
	})
}

// FuzzLoadSegment writes arbitrary bytes as a segment beside a valid
// one, named to scan after it so its records would supersede the valid
// ones. Open must not fail or panic, and every Get must either miss or
// return a value some Put wrote.
func FuzzLoadSegment(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	keys := []string{Key("a"), Key("b"), KindKey("sig", "c"), KindKey("component", "d")}
	written := map[int]bool{}
	for i, key := range keys {
		if err := Put(c, key, intCodec, 100+i); err != nil {
			f.Fatal(err)
		}
		written[100+i] = true
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segmentExt))
	if err != nil || len(segs) != 1 {
		f.Fatalf("segments %v (err %v), want one", segs, err)
	}
	valid, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(frame(codec.EncodeEntry(nil, SchemaVersion+1, keys[0], intCodec.Append(nil, 1), -1)))
	f.Add(append(frame(codec.EncodeEntry(nil, SchemaVersion, keys[1], []byte{0xEE, 0xEE}, -1)), 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0"+segmentExt), valid, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "1"+segmentExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if v, ok := Get(c, key, intCodec); ok && !written[v] {
				t.Errorf("key %s read %d, which no Put wrote", key, v)
			}
		}
		if _, err := c.DiskStats(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDoErrorNotCached(t *testing.T) {
	c := open(t)
	key := Key("err")
	boom := errors.New("boom")
	_, _, err := Do(c, key, intCodec, func() (int, error) { return 0, boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := Do(c, key, intCodec, func() (int, error) { return 42, nil }, nil)
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
	}, nil)
	if err != nil || !hit || v.Name != "stored" {
		t.Fatalf("matching verify: v=%+v hit=%v err=%v", v, hit, err)
	}
	_, _, err = Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "different", Values: []int{1}}, nil
	}, nil)
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
	}, eq)
	if err != nil || !hit {
		t.Fatalf("comparator verify: hit=%v err=%v", hit, err)
	}
	_, _, err = Do(c, key, payloadCodec, func() (payload, error) {
		return payload{Name: "y"}, nil
	}, eq)
	if !errors.Is(err, ErrVerifyMismatch) {
		t.Fatalf("comparator mismatch returned %v", err)
	}
}
