// Package cache implements a content-addressed, versioned, on-disk
// cache for synthesis-derived results. Entries are binary-encoded
// files (internal/codec's versioned pointer-free encoding — explicit
// per-type encoders, no reflection) named by a SHA-256 key the caller
// derives from the content that determines the result — the
// structural fingerprint of the source design, the synthesis
// parameter signature, and the measurement options — plus the cache
// schema version, so a schema bump silently invalidates every old
// entry instead of misreading it. Each entry carries a CRC-32C over
// its payload and large payloads are flate-compressed per entry
// (recorded in the entry header).
//
// The cache is safe for concurrent use. Lookups of the same key are
// single-flighted: when several workers (e.g. an internal/parallel
// pool measuring a corpus) miss on one key at the same time, exactly
// one runs the computation and the rest wait for its result.
// Corrupted or truncated entries are treated as misses — the entry is
// deleted and recomputed — never as errors, so a damaged cache
// directory degrades to cold-start performance rather than failure.
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
// the key derivation and the per-entry header, so bumping it orphans
// every existing entry (they are never decoded, only ignored).
// Version 3 introduced the binary codec format (versions 1-2 were
// gob); version 4 re-keys measurement entries from whole-design
// fingerprints to per-subtree source hashes and adds signature-level
// and dependency-graph entry kinds (the incremental remeasurement
// layer) — the payload encodings are unchanged, but the key semantics
// are not, so the bump keeps v3 entries from shadowing subtree-keyed
// results.
const SchemaVersion = 4

// CompressThreshold is the encoded payload size at which entries are
// flate-compressed on write (forwarded to codec.EncodeEntry, which
// records the choice in the entry header and keeps the compressed form
// only when it is actually smaller).
const CompressThreshold = codec.DefaultCompressThreshold

// EnvVar names the environment variable the commands consult for a
// default cache directory when no -cache-dir flag is given.
const EnvVar = "UCOMPLEXITY_CACHE"

// entryExt is the cache-entry file suffix ("ucx" binary entries;
// schema 1-2 wrote ".gob" files, which a v3 cache never touches).
const entryExt = ".ucx"

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
	DecodeErrors     int64 // corrupt/truncated/stale entries discarded
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

// DiskStats summarizes the entries currently on disk (one directory
// scan; see Cache.DiskStats). Kinds breaks the totals down by entry
// kind (the KindKey prefix; plain Key entries group under "").
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
// hits and misses as counted by Fetch/Do, puts as counted by Put.
type KindCounters struct {
	Hits, Misses, Puts int64
}

// flightShards is the single-flight table's shard count. Keys are
// SHA-256-derived, so any byte of the key spreads them uniformly; 32
// shards keep a thousand-component batch's registration traffic from
// serializing on one mutex while costing a few hundred bytes idle.
const flightShards = 32

// flightShard is one shard of the single-flight table.
type flightShard struct {
	mu sync.Mutex
	m  map[string]*flight
}

// Cache is one on-disk cache directory.
type Cache struct {
	dir    string
	verify atomic.Bool

	flights [flightShards]flightShard

	kinds sync.Map // kind string → *kindCounter

	hits, misses, puts, decodeErrs, verifyChecks, verifyMismatches atomic.Int64
	decodeNanos, bytesStored, bytesRaw                             atomic.Int64
}

type flight struct {
	done chan struct{}
	val  any
	hit  bool
	err  error
}

// kindCounter is the lock-free form of KindCounters.
type kindCounter struct {
	hits, misses, puts atomic.Int64
}

// Open creates (if needed) and opens a cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// shardOf picks a flight shard for key: keys are hex of SHA-256 (or
// kind-prefixed hex), so the tail bytes are uniformly distributed.
func (c *Cache) shardOf(key string) *flightShard {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.flights[h%flightShards]
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

// DiskStats reports how many entries the cache directory holds and
// their total size, broken down by entry kind. Each call scans the
// directory, so it also sees entries other processes wrote.
func (c *Cache) DiskStats() (DiskStats, error) {
	ds := DiskStats{Kinds: map[string]KindDisk{}}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return ds, fmt.Errorf("cache: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), entryExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // entry deleted between ReadDir and Info
		}
		ds.Entries++
		ds.Bytes += info.Size()
		k := KindOf(strings.TrimSuffix(e.Name(), entryExt))
		kd := ds.Kinds[k]
		kd.Entries++
		kd.Bytes += info.Size()
		ds.Kinds[k] = kd
	}
	return ds, nil
}

// Snapshot is a point-in-time index of the keys present in the cache
// directory, built from one directory scan. Batch planners consult it
// to skip the per-entry open/stat a cold key would waste: MayContain
// is a hint, not a guarantee — an entry written after the snapshot is
// reported absent — so callers must treat "absent" as "compute it"
// (which Put makes idempotent: keys are content-addressed).
type Snapshot struct {
	keys map[string]struct{}
}

// Snapshot scans the cache directory once and returns the key index.
func (c *Cache) Snapshot() (*Snapshot, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Snapshot{keys: make(map[string]struct{}, len(entries))}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), entryExt) {
			continue
		}
		s.keys[strings.TrimSuffix(e.Name(), entryExt)] = struct{}{}
	}
	return s, nil
}

// MayContain reports whether key was present at snapshot time. A nil
// snapshot reports true for every key (unknown means "go look").
func (s *Snapshot) MayContain(key string) bool {
	if s == nil {
		return true
	}
	_, ok := s.keys[key]
	return ok
}

// Len returns the number of keys in the snapshot.
func (s *Snapshot) Len() int {
	if s == nil {
		return 0
	}
	return len(s.keys)
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
// on-disk footprint (one directory scan), this run's warm-path decode
// accounting, and the per-kind breakdown. It returns the scan's error
// before writing anything, or the write's error.
func (c *Cache) WriteReport(w io.Writer) error {
	s := c.Stats()
	ds, err := c.DiskStats()
	if err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cache-stats: %d entries, %d bytes on disk (%s)\n", ds.Entries, ds.Bytes, c.Dir())
	if s.BytesStored > 0 {
		fmt.Fprintf(&b, "cache-stats: read %d stored bytes -> %d raw bytes (%.2fx compression), decode %.3f ms\n",
			s.BytesStored, s.BytesRaw, float64(s.BytesRaw)/float64(s.BytesStored), float64(s.DecodeNanos)/1e6)
	}
	for _, row := range kindRows(ds, c.KindStats()) {
		fmt.Fprintln(&b, "cache-stats:", row)
	}
	_, err = io.WriteString(w, b.String())
	return err
}

// kindRows renders one human-readable line per entry kind — disk
// footprint from a DiskStats scan joined with the run's KindStats
// counters — sorted by kind name. Kinds with neither disk entries nor
// runtime traffic are omitted; plain Key entries report as "plain".
func kindRows(ds DiskStats, ks map[string]KindCounters) []string {
	names := map[string]bool{}
	for k := range ds.Kinds {
		names[k] = true
	}
	for k := range ks {
		names[k] = true
	}
	sorted := make([]string, 0, len(names))
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	rows := make([]string, 0, len(sorted))
	for _, k := range sorted {
		kd, kc := ds.Kinds[k], ks[k]
		if kd.Entries == 0 && kc == (KindCounters{}) {
			continue
		}
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

// countKind folds one event into the key's kind counters. The fast
// path is a lock-free sync.Map load plus atomic adds — the kind set is
// tiny and stable, so the store path runs a handful of times per run.
func (c *Cache) countKind(key string, hits, misses, puts int64) {
	k := KindOf(key)
	v, ok := c.kinds.Load(k)
	if !ok {
		v, _ = c.kinds.LoadOrStore(k, &kindCounter{})
	}
	kc := v.(*kindCounter)
	if hits != 0 {
		kc.hits.Add(hits)
	}
	if misses != 0 {
		kc.misses.Add(misses)
	}
	if puts != 0 {
		kc.puts.Add(puts)
	}
}

// Key derives a cache key from the parts that determine a result.
// Parts are length-prefixed (so {"ab","c"} and {"a","bc"} differ) and
// the schema version is mixed in. The key doubles as the entry's file
// name.
func Key(parts ...string) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(SchemaVersion))
	h.Write(buf[:])
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// KindKey derives a cache key like Key but tagged with an entry kind:
// the returned key is "<kind>-<hash>", so the kind survives into the
// entry file name (per-kind disk stats read it back with KindOf) and
// the runtime counters attribute hits/misses/puts to it. The kind is
// also mixed into the hash, so identical parts under different kinds
// are distinct entries. Kinds must be non-empty, filename-safe, and
// free of '-' (the separator).
func KindKey(kind string, parts ...string) string {
	return kind + "-" + Key(append([]string{"kind=" + kind}, parts...)...)
}

// KindOf extracts the kind tag from a key: the prefix before the first
// '-' for KindKey keys, "" for plain Key keys (bare hex).
func KindOf(key string) string {
	if kind, _, ok := strings.Cut(key, "-"); ok {
		return kind
	}
	return ""
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+entryExt) }

// scratch is the per-read decode workspace: the raw file bytes and the
// decompression output live in two reusable buffers, so a warm sweep's
// steady state reads entry after entry without allocating either. The
// buffers only hold bytes between Get and the typed decode — decoded
// values copy out of them (a codec.Codec contract) — so pooling them
// process-wide is safe.
type scratch struct {
	file []byte
	raw  []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// readEntry reads and envelope-decodes one entry file into sc,
// returning the payload (aliasing sc's buffers). A missing file
// returns os.ErrNotExist; any other failure means a damaged entry.
func (c *Cache) readEntry(key string, sc *scratch) ([]byte, codec.EntryInfo, error) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return nil, codec.EntryInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, codec.EntryInfo{}, err
	}
	size := int(st.Size())
	if cap(sc.file) < size {
		sc.file = make([]byte, size)
	}
	sc.file = sc.file[:size]
	if _, err := io.ReadFull(f, sc.file); err != nil {
		return nil, codec.EntryInfo{}, err
	}
	return codec.DecodeEntry(sc.file, SchemaVersion, key, &sc.raw)
}

// Get decodes the entry for key with cd. It returns false on any miss:
// no entry, a truncated or corrupt file, a CRC or schema mismatch, or
// a payload cd rejects (damaged entries are deleted so they are not
// re-read every time).
func Get[T any](c *Cache, key string, cd codec.Codec[T]) (T, bool) {
	var zero T
	start := time.Now()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	payload, info, err := c.readEntry(key, sc)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			c.discard(key)
		}
		return zero, false
	}
	r := codec.NewReader(payload)
	v, err := cd.Decode(r)
	if err == nil {
		err = r.Finish()
	}
	if err != nil {
		c.discard(key)
		return zero, false
	}
	c.decodeNanos.Add(time.Since(start).Nanoseconds())
	c.bytesStored.Add(int64(info.StoredLen))
	c.bytesRaw.Add(int64(info.RawLen))
	return v, true
}

// Fetch is Get with stats accounting: a successful decode counts as a
// hit. Unlike Do it never computes or stores. Batch planners use it to
// probe for finished entries up front; a miss counts nothing, because
// the planner's eventual Do on the same key records the miss when it
// computes. In verify mode callers should skip Fetch and go through Do
// so hits are recomputed and compared.
func Fetch[T any](c *Cache, key string, cd codec.Codec[T]) (T, bool) {
	if c == nil {
		var zero T
		return zero, false
	}
	v, ok := Get(c, key, cd)
	if !ok {
		return v, false
	}
	c.hits.Add(1)
	c.countKind(key, 1, 0, 0)
	return v, true
}

func (c *Cache) discard(key string) {
	c.decodeErrs.Add(1)
	os.Remove(c.path(key))
}

// Put writes the entry for key atomically (temp file + rename), so a
// concurrent reader or a crash never observes a partial entry.
func Put[T any](c *Cache, key string, cd codec.Codec[T], val T) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	payload := cd.Append(sc.raw[:0], val)
	sc.raw = payload[:0]
	entry := codec.EncodeEntry(sc.file[:0], SchemaVersion, key, payload, CompressThreshold)
	sc.file = entry[:0]

	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	// The temp file is removed only on failure: after a rename its name
	// is gone, and removing it anyway costs two failed syscalls per
	// entry (unlink, then rmdir).
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: %w", err)
	}
	c.puts.Add(1)
	c.countKind(key, 0, 0, 1)
	return nil
}

// Do returns the entry for key, computing and storing it on a miss.
// The boolean reports whether the result came from the cache.
// Concurrent calls for the same key are single-flighted: one computes,
// the rest receive its result. A nil cache just runs compute.
//
// In verify mode a hit recomputes anyway and compares the two results
// with eq, which receives the cached and the recomputed value and
// returns a description of the first difference ("" when equal); a nil
// eq means reflect.DeepEqual. A mismatch returns ErrVerifyMismatch.
//
// snap is a directory Snapshot hint; nil means probe the disk. When
// the snapshot says the key was absent, the initial read is skipped and
// the flight goes straight to compute-and-store — on a cold batch that
// deletes one failed open() per entry. The hint never changes the
// result: a racing writer's entry is simply recomputed to the identical
// value (keys are content-addressed) and the Put overwrites in place.
// Verify mode ignores the hint so hits are still recomputed and
// compared.
func Do[T any](c *Cache, key string, cd codec.Codec[T], compute func() (T, error), eq func(cached, fresh T) string, snap *Snapshot) (T, bool, error) {
	var zero T
	if c == nil {
		v, err := compute()
		return v, false, err
	}

	sh := c.shardOf(key)
	sh.mu.Lock()
	if f, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		<-f.done
		if f.err != nil {
			return zero, false, f.err
		}
		v, ok := f.val.(T)
		if !ok {
			return zero, false, fmt.Errorf("cache: key %s used with mismatched types %T and %T", key, f.val, zero)
		}
		return v, f.hit, nil
	}
	f := &flight{done: make(chan struct{})}
	if sh.m == nil {
		sh.m = map[string]*flight{}
	}
	sh.m[key] = f
	sh.mu.Unlock()
	defer func() {
		close(f.done)
		sh.mu.Lock()
		delete(sh.m, key)
		sh.mu.Unlock()
	}()

	var cached T
	var ok bool
	if snap.MayContain(key) || c.Verifying() {
		cached, ok = Get(c, key, cd)
	}
	if ok {
		c.hits.Add(1)
		c.countKind(key, 1, 0, 0)
		if c.Verifying() {
			c.verifyChecks.Add(1)
			fresh, err := compute()
			if err != nil {
				f.err = fmt.Errorf("cache: verify recompute of %s: %w", key, err)
				return zero, false, f.err
			}
			diff := ""
			if eq != nil {
				diff = eq(cached, fresh)
			} else if !reflect.DeepEqual(cached, fresh) {
				diff = "values differ (DeepEqual)"
			}
			if diff != "" {
				c.verifyMismatches.Add(1)
				f.err = fmt.Errorf("%w: key %s: %s", ErrVerifyMismatch, key, diff)
				return zero, false, f.err
			}
		}
		f.val, f.hit = cached, true
		return cached, true, nil
	}

	c.misses.Add(1)
	c.countKind(key, 0, 1, 0)
	v, err := compute()
	if err != nil {
		f.err = err
		return zero, false, err
	}
	// A failed write is not fatal — the caller still has the value —
	// but it is counted as a decode error so a read-only or full cache
	// directory is visible in the stats.
	if err := Put(c, key, cd, v); err != nil {
		c.decodeErrs.Add(1)
	}
	f.val = v
	return v, false, nil
}
