// Package cache implements a content-addressed, versioned, on-disk
// cache for synthesis-derived results. Entries are binary-encoded
// records (internal/codec's versioned pointer-free encoding — explicit
// per-type encoders, no reflection) under a SHA-256 key the caller
// derives from the content that determines the result — the
// structural fingerprint of the source design, the synthesis
// parameter signature, and the measurement options — plus the cache
// schema version, so a schema bump silently invalidates every old
// entry instead of misreading it. As in ninja's build log, each
// writing handle appends records — a uvarint length, then codec's
// entry envelope — to a segment file of its own, and Open indexes
// every segment in memory, so an absent key costs a map miss.
//
// The cache is safe for concurrent use. It is a read-through store,
// not a single-flight table: two callers that miss one key at the same
// time both compute it and append identical bytes, as two processes
// sharing a directory do. Computing each key once is the caller's
// concern — internal/measure's session memos hold the single-flight
// entries in front of Do. Damaged records (a torn tail, a failed CRC,
// schema or key echo) are misses, never errors, and no reader sees
// part of a record, so a damaged cache directory degrades to
// cold-start performance, not failure.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
)

// SchemaVersion is the on-disk format version. It participates in both
// the key derivation and each record's envelope, so bumping it orphans
// every existing record (never decoded; compaction drops them).
// Version 3 introduced the binary codec format (versions 1-2 were
// gob); version 4 re-keyed measurement entries, and the bump kept v3
// entries from shadowing the new keys. Later re-keyings needed no
// bump: measurement now stores one "search" record per structural
// hash and one "sig" record per design point, and no record per unit,
// and keys hash their parts, so a record keyed the older way is
// simply never looked up.
const SchemaVersion = 4

// CompressThreshold is the encoded payload size at which entries are
// flate-compressed on write (forwarded to codec.EncodeEntry, which
// records the choice in the entry header and keeps the compressed form
// only when it is actually smaller).
const CompressThreshold = codec.DefaultCompressThreshold

// EnvVar names the environment variable the commands consult for a
// default cache directory when no -cache-dir flag is given.
const EnvVar = "UCOMPLEXITY_CACHE"

// segmentExt is the segment file suffix. Files of other names — a
// compaction's temp file, the ".ucx" entries of the one-file-per-entry
// layout segments replaced — are never read or removed.
const segmentExt = ".seg"

// Compaction bounds: Open merges every segment into one when there are
// more than compactSegments of them (each writing handle adds one), or
// when more than one record in compactDeadShare is dead — damaged, of
// another schema, a torn tail, or superseded by a later record.
const (
	compactSegments  = 8
	compactDeadShare = 4
)

// DefaultDir returns the cache directory from the environment ("" when
// unset, meaning caching is off).
func DefaultDir() string { return os.Getenv(EnvVar) }

// ErrVerifyMismatch reports that verify mode recomputed a cached entry
// and the fresh result disagreed with the stored one.
var ErrVerifyMismatch = errors.New("cache: verify mismatch between cached and recomputed result")

// Stats counts cache activity since Open.
type Stats struct {
	Hits             int64 // entries served from disk
	Misses           int64 // keys computed fresh (no usable entry)
	Puts             int64 // entries written
	DecodeErrors     int64 // damaged or stale records, failed writes
	VerifyChecks     int64 // hits recomputed in verify mode
	VerifyMismatches int64
	// Decode-path accounting, accumulated over successful reads:
	// DecodeNanos is wall time spent reading + decoding entries,
	// BytesStored counts on-disk entry bytes read, BytesRaw counts the
	// payload bytes after decompression (BytesRaw/BytesStored > 1 means
	// compression is earning its decode pass).
	DecodeNanos int64
	BytesStored int64
	BytesRaw    int64
}

// DiskStats summarizes the indexed entries (see Cache.DiskStats):
// their count and envelope bytes, and by entry kind (the KindKey
// prefix; plain Key entries group under "").
type DiskStats struct {
	Entries int
	Bytes   int64
	Kinds   map[string]KindDisk
}

// KindDisk is one kind's share of the on-disk footprint.
type KindDisk struct {
	Entries int
	Bytes   int64
}

// KindCounters is one kind's share of the runtime activity counters:
// hits and misses as counted by Get/Do, puts as counted by Put.
type KindCounters struct {
	Hits, Misses, Puts int64
}

// shardCount is the key space's shard count. Keys are SHA-256-derived,
// so any byte of the key spreads them uniformly; 32 shards keep a
// thousand-component batch's lookups and index updates from
// serializing on one mutex while costing a few hundred bytes idle.
const shardCount = 32

// shard is one shard of the record index.
type shard struct {
	mu    sync.Mutex
	index map[string]record
}

// record locates one record's envelope: n bytes at off in segment f.
type record struct {
	f   *os.File
	off int64
	n   int
}

// Cache is one on-disk cache directory.
type Cache struct {
	dir    string
	verify atomic.Bool

	shards [shardCount]shard

	wmu   sync.Mutex
	w     *os.File // this handle's segment, created by its first Put
	wsize int64    // w's length: where the next record goes

	kinds sync.Map // kind string → *kindCounter

	hits, misses, puts, decodeErrs, verifyChecks, verifyMismatches atomic.Int64
	decodeNanos, bytesStored, bytesRaw                             atomic.Int64
}

// kindCounter is the lock-free form of KindCounters.
type kindCounter struct {
	hits, misses, puts atomic.Int64
}

// Open creates (if needed) and opens a cache rooted at dir. It indexes
// every readable segment in name order, so a later record of a key
// wins, counts the damaged records it skips as decode errors, and
// compacts the segments once they pass the compaction bounds. Records
// another process appends after Open are not seen: they recompute, to
// the same bytes, because keys are content-addressed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	entries, _ := os.ReadDir(dir) // unreadable: an empty index; Puts then fail
	c := &Cache{dir: dir}
	var segs []*os.File
	var bad, intact int
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segmentExt) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		data, err := io.ReadAll(f)
		if err != nil {
			f.Close()
			continue
		}
		segs = append(segs, f)
		bad += scanSegment(data, func(key string, off, n int) {
			intact++
			c.setIndex(key, record{f, int64(off), n})
		})
	}
	ds, _ := c.DiskStats()
	c.decodeErrs.Add(int64(bad))
	if len(segs) > compactSegments || (bad+intact-ds.Entries)*compactDeadShare > bad+intact {
		c.compact(segs) // on failure the index stays on the old segments
	}
	return c, nil
}

// scanSegment calls fn with the key, offset and length of every intact
// record envelope in data and returns how many records were damaged. A
// record failing envelope validation is skipped; a length prefix that
// is unreadable or runs past the end is a torn tail and ends the scan.
func scanSegment(data []byte, fn func(key string, off, n int)) (bad int) {
	var scratch []byte
	for off := 0; off < len(data); {
		n, w := binary.Uvarint(data[off:])
		if w <= 0 || n > uint64(len(data)-off-w) {
			return bad + 1
		}
		off += w
		env := data[off : off+int(n)]
		key, err := codec.EntryKey(env)
		if err == nil {
			_, _, err = codec.DecodeEntry(env, SchemaVersion, key, &scratch)
		}
		if err != nil {
			bad++
		} else {
			fn(key, off, int(n))
		}
		off += int(n)
	}
	return bad
}

// compact writes every indexed record into one new segment — a temp
// file renamed into place once whole — repoints the index at it, and
// deletes segs. On a failed write the index and segs stay as they were.
func (c *Cache) compact(segs []*os.File) error {
	var buf []byte
	moved := map[string]record{}
	for i := range c.shards {
		for key, r := range c.shards[i].index {
			buf = binary.AppendUvarint(buf, uint64(r.n))
			moved[key] = record{off: int64(len(buf)), n: r.n}
			buf = append(buf, make([]byte, r.n)...)
			if _, err := r.f.ReadAt(buf[len(buf)-r.n:], r.off); err != nil {
				return err
			}
		}
	}
	if len(buf) > 0 {
		name := filepath.Join(c.dir, segmentName())
		f, err := os.OpenFile(name+".tmp", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		if _, err = f.Write(buf); err == nil {
			err = os.Rename(name+".tmp", name+segmentExt)
		}
		if err != nil {
			f.Close()
			os.Remove(name + ".tmp")
			return err
		}
		for key, r := range moved {
			r.f = f
			c.setIndex(key, r)
		}
	}
	for _, f := range segs {
		f.Close()
		os.Remove(f.Name())
	}
	return nil
}

// segmentSeq tells apart segments one process names in one clock tick.
var segmentSeq atomic.Uint64

// segmentName returns a file-name stem no other segment has. Names sort
// by creation time, the order Open indexes segments in.
func segmentName() string {
	return fmt.Sprintf("%016x-%x-%x", time.Now().UnixNano(), os.Getpid(), segmentSeq.Add(1))
}

// shardOf picks key's shard: keys are hex of SHA-256 (or kind-prefixed
// hex), so the tail bytes are uniformly distributed.
func (c *Cache) shardOf(key string) *shard {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%shardCount]
}

// setIndex points key at r.
func (c *Cache) setIndex(key string, r record) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	if sh.index == nil {
		sh.index = map[string]record{}
	}
	sh.index[key] = r
	sh.mu.Unlock()
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// SetVerify switches verify mode: every hit is recomputed and compared
// against the stored entry, turning the cache into a consistency
// checker instead of an accelerator.
func (c *Cache) SetVerify(v bool) { c.verify.Store(v) }

// Verifying reports whether verify mode is on.
func (c *Cache) Verifying() bool { return c.verify.Load() }

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Puts:             c.puts.Load(),
		DecodeErrors:     c.decodeErrs.Load(),
		VerifyChecks:     c.verifyChecks.Load(),
		VerifyMismatches: c.verifyMismatches.Load(),
		DecodeNanos:      c.decodeNanos.Load(),
		BytesStored:      c.bytesStored.Load(),
		BytesRaw:         c.bytesRaw.Load(),
	}
}

// DiskStats sums the index: the records Open loaded and this handle's
// puts, not records another process appended since. The error is
// always nil.
func (c *Cache) DiskStats() (DiskStats, error) {
	ds := DiskStats{Kinds: map[string]KindDisk{}}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, r := range sh.index {
			kd := ds.Kinds[KindOf(key)]
			kd.Entries++
			kd.Bytes += int64(r.n)
			ds.Kinds[KindOf(key)] = kd
			ds.Entries++
			ds.Bytes += int64(r.n)
		}
		sh.mu.Unlock()
	}
	return ds, nil
}

// KindStats returns a snapshot of the per-kind runtime counters (keys
// are KindKey kinds; plain Key traffic groups under "").
func (c *Cache) KindStats() map[string]KindCounters {
	out := map[string]KindCounters{}
	c.kinds.Range(func(k, v any) bool {
		kc := v.(*kindCounter)
		out[k.(string)] = KindCounters{
			Hits:   kc.hits.Load(),
			Misses: kc.misses.Load(),
			Puts:   kc.puts.Load(),
		}
		return true
	})
	return out
}

// WriteReport writes the commands' -cache-stats report to w: the
// indexed footprint, this run's warm-path decode accounting, and the
// per-kind breakdown.
func (c *Cache) WriteReport(w io.Writer) {
	s := c.Stats()
	ds, _ := c.DiskStats()
	fmt.Fprintf(w, "cache-stats: %d entries, %d bytes on disk (%s)\n", ds.Entries, ds.Bytes, c.Dir())
	if s.BytesStored > 0 {
		fmt.Fprintf(w, "cache-stats: read %d stored bytes -> %d raw bytes (%.2fx compression), decode %.3f ms\n",
			s.BytesStored, s.BytesRaw, float64(s.BytesRaw)/float64(s.BytesStored), float64(s.DecodeNanos)/1e6)
	}
	for _, row := range kindRows(ds, c.KindStats()) {
		fmt.Fprintln(w, "cache-stats:", row)
	}
}

// kindRows renders one human-readable line per entry kind — the
// indexed footprint from DiskStats joined with the run's KindStats
// counters — sorted by kind name; plain Key entries report as "plain".
func kindRows(ds DiskStats, ks map[string]KindCounters) []string {
	var names []string
	for k := range ds.Kinds {
		names = append(names, k)
	}
	for k := range ks {
		if _, ok := ds.Kinds[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	rows := make([]string, 0, len(names))
	for _, k := range names {
		kd, kc := ds.Kinds[k], ks[k]
		label := k
		if label == "" {
			label = "plain"
		}
		row := fmt.Sprintf("kind %-9s %4d entries, %8d bytes", label+":", kd.Entries, kd.Bytes)
		if total := kc.Hits + kc.Misses; total > 0 {
			row += fmt.Sprintf("; %d hits / %d misses (%.1f%% hit rate), %d puts",
				kc.Hits, kc.Misses, 100*float64(kc.Hits)/float64(total), kc.Puts)
		} else if kc.Puts > 0 {
			row += fmt.Sprintf("; %d puts", kc.Puts)
		}
		rows = append(rows, row)
	}
	return rows
}

// kind returns the counters of key's kind. The fast path is a
// lock-free sync.Map load — the kind set is tiny and stable, so the
// store path runs a handful of times per run.
func (c *Cache) kind(key string) *kindCounter {
	k := KindOf(key)
	v, ok := c.kinds.Load(k)
	if !ok {
		v, _ = c.kinds.LoadOrStore(k, &kindCounter{})
	}
	return v.(*kindCounter)
}

// Key derives a cache key from the parts that determine a result.
// Parts are length-prefixed (so {"ab","c"} and {"a","bc"} differ) and
// the schema version is mixed in.
func Key(parts ...string) string {
	var out [2 * sha256.Size]byte
	sum := keySum("", parts)
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// KindKey derives a cache key like Key but tagged with an entry kind:
// the returned key is "<kind>-<hash>", so per-kind disk stats read the
// kind back with KindOf and the runtime counters attribute
// hits/misses/puts to it. The kind is also mixed into the hash, as a
// first part "kind=<kind>", so identical parts under different kinds
// are distinct entries. Kinds must be non-empty and free of '-' (the
// separator).
func KindKey(kind string, parts ...string) string {
	var stack [16 + 1 + 2*sha256.Size]byte
	sum := keySum(kind, parts)
	out := append(append(stack[:0], kind...), '-')
	return string(hex.AppendEncode(out, sum[:]))
}

// keySum hashes the schema version and the length-prefixed parts, led
// by the part "kind=<kind>" when kind is non-empty. It lays the hashed
// bytes out in one buffer, on the stack unless the parts are large, so
// deriving a short key allocates only the key string.
func keySum(kind string, parts []string) [sha256.Size]byte {
	const prefix = "kind="
	n := 8
	if kind != "" {
		n += 8 + len(prefix) + len(kind)
	}
	for _, p := range parts {
		n += 8 + len(p)
	}
	var stack [512]byte
	b := stack[:0]
	if n > len(stack) {
		b = make([]byte, 0, n)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(SchemaVersion))
	if kind != "" {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(prefix)+len(kind)))
		b = append(append(b, prefix...), kind...)
	}
	for _, p := range parts {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(p)))
		b = append(b, p...)
	}
	return sha256.Sum256(b)
}

// KindOf extracts the kind tag from a key: the prefix before the first
// '-' for KindKey keys, "" for plain Key keys (bare hex).
func KindOf(key string) string {
	if kind, _, ok := strings.Cut(key, "-"); ok {
		return kind
	}
	return ""
}

// scratch holds a Get's or Put's record and payload bytes in reusable
// buffers, so a warm sweep reads record after record without
// allocating either. Decoded values copy out of them (a codec.Codec
// contract), so pooling them process-wide is safe.
type scratch struct {
	file []byte
	raw  []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Get decodes the entry for key with cd and counts a hit. It misses,
// counting nothing (a planner's later Do counts the miss), when key
// has no indexed record or its record fails the read, the CRC, schema
// or key-echo check, or cd; such a failure counts a decode error and
// drops the record from the index unless a Put has replaced it. Verify
// mode needs Do, which recomputes hits.
func Get[T any](c *Cache, key string, cd codec.Codec[T]) (T, bool) {
	var zero T
	sh := c.shardOf(key)
	sh.mu.Lock()
	r, ok := sh.index[key]
	sh.mu.Unlock()
	if !ok {
		return zero, false
	}
	start := time.Now()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.file = append(sc.file[:0], make([]byte, r.n)...)
	var v T
	var info codec.EntryInfo
	_, err := r.f.ReadAt(sc.file, r.off)
	if err == nil {
		var payload []byte
		if payload, info, err = codec.DecodeEntry(sc.file, SchemaVersion, key, &sc.raw); err == nil {
			rd := codec.NewReader(payload)
			if v, err = cd.Decode(rd); err == nil {
				err = rd.Finish()
			}
		}
	}
	if err != nil {
		c.decodeErrs.Add(1)
		sh.mu.Lock()
		if sh.index[key] == r {
			delete(sh.index, key)
		}
		sh.mu.Unlock()
		return zero, false
	}
	c.decodeNanos.Add(time.Since(start).Nanoseconds())
	c.bytesStored.Add(int64(info.StoredLen))
	c.bytesRaw.Add(int64(info.RawLen))
	c.hits.Add(1)
	c.kind(key).hits.Add(1)
	return v, true
}

// Put appends a record for key to this handle's segment, created on
// first use, and indexes it once written whole. A record a failed
// write left partial is overwritten by the next Put, or ends a later
// scan as a torn tail.
func Put[T any](c *Cache, key string, cd codec.Codec[T], val T) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	payload := cd.Append(sc.raw[:0], val)
	sc.raw = payload[:0]
	// The envelope is encoded after room for the longest length prefix;
	// the actual prefix then goes right-aligned into that room.
	var room [binary.MaxVarintLen64]byte
	buf := codec.EncodeEntry(append(sc.file[:0], room[:]...), SchemaVersion, key, payload, CompressThreshold)
	sc.file = buf[:0]
	p := binary.PutUvarint(room[:], uint64(len(buf)-len(room)))
	rec := buf[len(room)-p:]
	copy(rec, room[:p])

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.w == nil {
		var err error
		if c.w, err = os.OpenFile(filepath.Join(c.dir, segmentName()+segmentExt), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
	}
	if _, err := c.w.WriteAt(rec, c.wsize); err != nil {
		return fmt.Errorf("cache: write %s: %w", key, err)
	}
	c.setIndex(key, record{c.w, c.wsize + int64(p), len(rec) - p})
	c.wsize += int64(len(rec))
	c.puts.Add(1)
	c.kind(key).puts.Add(1)
	return nil
}

// Do returns the entry for key, computing and storing it on a miss.
// The boolean reports whether the result came from the cache. It is a
// read-through, not a single-flight: two calls that miss one key at
// once both compute and both append the same bytes (the later record
// supersedes the earlier, and Open's compaction drops it). Callers
// that must compute a key once — the measurement session's search and
// flight memos — hold their own single-flight entry around Do. A nil
// cache just runs compute.
//
// In verify mode a hit recomputes anyway and compares the two results
// with eq, which receives the cached and the recomputed value and
// returns a description of the first difference ("" when equal); a nil
// eq means reflect.DeepEqual. A mismatch returns ErrVerifyMismatch.
func Do[T any](c *Cache, key string, cd codec.Codec[T], compute func() (T, error), eq func(cached, fresh T) string) (T, bool, error) {
	var zero T
	if c == nil {
		v, err := compute()
		return v, false, err
	}
	cached, ok := Get(c, key, cd)
	if !ok {
		c.misses.Add(1)
		c.kind(key).misses.Add(1)
		v, err := compute()
		if err != nil {
			return zero, false, err
		}
		// A failed write is not fatal — the caller still has the value —
		// but it is counted as a decode error so a read-only or full
		// cache directory is visible in the stats.
		if err := Put(c, key, cd, v); err != nil {
			c.decodeErrs.Add(1)
		}
		return v, false, nil
	}
	if c.Verifying() {
		c.verifyChecks.Add(1)
		fresh, err := compute()
		if err != nil {
			return zero, false, fmt.Errorf("cache: verify recompute of %s: %w", key, err)
		}
		diff := ""
		if eq != nil {
			diff = eq(cached, fresh)
		} else if !reflect.DeepEqual(cached, fresh) {
			diff = "values differ (DeepEqual)"
		}
		if diff != "" {
			c.verifyMismatches.Add(1)
			return zero, false, fmt.Errorf("%w: key %s: %s", ErrVerifyMismatch, key, diff)
		}
	}
	return cached, true, nil
}
