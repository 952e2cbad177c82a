package measure

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/hdl"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// The cache contract: a component measured with the cache off, with a
// cold cache, and from a warm cache yields bit-identical paper-facing
// results, and a warm hit carries the optimized netlist's hash and
// timing summary, so downstream readers see the identical values. A
// cold one-unit accounting batch writes two entries: its search's
// "search" record and its signature's "sig" record. No record is kept
// per unit: the unit is assembled in memory from the two.

func execDesign(t *testing.T) (*hdl.Design, string) {
	t.Helper()
	c, err := designs.ByLabel("IVM-Execute")
	if err != nil {
		t.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	return d, c.Top
}

func measureExec(t *testing.T, opts Options) *ComponentResult {
	t.Helper()
	d, top := execDesign(t)
	res, err := MeasureComponent(d, top, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCacheOffColdWarmBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	off := measureExec(t, Options{})
	cold := measureExec(t, Options{Cache: ch})
	warm := measureExec(t, Options{Cache: ch})

	for name, got := range map[string]*ComponentResult{"cold": cold, "warm": warm} {
		if *got.Metrics != *off.Metrics {
			t.Errorf("%s metrics diverged from uncached:\n%+v\n%+v", name, *got.Metrics, *off.Metrics)
		}
		if !reflect.DeepEqual(got.MinimizedParams, off.MinimizedParams) {
			t.Errorf("%s minimized params diverged: %v vs %v", name, got.MinimizedParams, off.MinimizedParams)
		}
		if got.InstanceCount != off.InstanceCount || got.DedupedInstances != off.DedupedInstances {
			t.Errorf("%s accounting counts diverged", name)
		}
		if got.NetlistHash == "" || got.NetlistHash != off.NetlistHash {
			t.Errorf("%s optimized netlist hash %q diverged from uncached %q", name, got.NetlistHash, off.NetlistHash)
		}
		if got.Timing != off.Timing {
			t.Errorf("%s timing summary %+v diverged from uncached %+v", name, got.Timing, off.Timing)
		}
	}

	s := ch.Stats()
	if s.Misses != 2 || s.Hits != 2 || s.Puts != 2 {
		t.Errorf("stats = %+v, want 2 misses and 2 puts (cold search + sig) and 2 hits (warm search + sig)", s)
	}
	// The search counters describe a run, not a result: the cold run
	// searched, the warm run read its search from disk and reports none.
	if cold.ElabCacheHits+cold.ElabCacheMisses == 0 {
		t.Errorf("cold result carries no search counters: %d/%d", cold.ElabCacheHits, cold.ElabCacheMisses)
	}
	if warm.ElabCacheHits != 0 || warm.ElabCacheMisses != 0 {
		t.Errorf("warm result carries probe counters %d/%d, want 0/0", warm.ElabCacheHits, warm.ElabCacheMisses)
	}

	// A fresh handle on the same directory must also hit: the entry is
	// content-addressed on disk, not process state.
	ch2, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	again := measureExec(t, Options{Cache: ch2})
	if *again.Metrics != *off.Metrics {
		t.Error("reopened cache served diverging metrics")
	}
	if s := ch2.Stats(); s.Hits != 2 || s.Misses != 0 {
		t.Errorf("reopened cache stats = %+v, want pure hits (search + sig)", s)
	}
}

func TestCacheVerifyModePassesOnConsistentEntry(t *testing.T) {
	ch, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := measureExec(t, Options{Cache: ch})
	ch.SetVerify(true)
	verified := measureExec(t, Options{Cache: ch})
	if *verified.Metrics != *first.Metrics {
		t.Error("verify-mode hit diverged from original measurement")
	}
	s := ch.Stats()
	if s.VerifyChecks != 2 || s.VerifyMismatches != 0 {
		t.Errorf("stats = %+v, want 2 clean verify checks (search + sig)", s)
	}
}

func TestCacheCorruptedComponentEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := measureExec(t, Options{Cache: ch})

	cold := recordKeys(t, dir)
	if len(cold) != 2 {
		t.Fatalf("cold records %v, want a search and a sig record", cold)
	}
	for _, key := range cold {
		damageRecord(t, dir, key)
	}

	again := measureExec(t, Options{Cache: ch})
	if diff := sameMeasurement(again, first); diff != "" {
		t.Errorf("recomputed measurement diverged after corruption: %s", diff)
	}
	// Cold: search + sig misses. Again: both damaged records fail
	// their CRC on read, are dropped, missed and rewritten.
	s := ch.Stats()
	if s.DecodeErrors != 2 || s.Misses != 4 || s.Hits != 0 || s.Puts != 4 {
		t.Errorf("stats = %+v, want both corrupt entries discarded and recomputed", s)
	}
	if got := recordKeys(t, dir); !slices.Equal(got, cold) {
		t.Errorf("records after recompute %v, want the cold run's %v", got, cold)
	}
}

// sameMeasurement reports how got differs from the cache-off want in
// what a cached record carries ("" when it does not).
func sameMeasurement(got, want *ComponentResult) string {
	switch {
	case *got.Metrics != *want.Metrics:
		return fmt.Sprintf("metrics %+v, want %+v", *got.Metrics, *want.Metrics)
	case !maps.Equal(got.MinimizedParams, want.MinimizedParams):
		return fmt.Sprintf("minimized params %v, want %v", got.MinimizedParams, want.MinimizedParams)
	case got.InstanceCount != want.InstanceCount || got.DedupedInstances != want.DedupedInstances:
		return "accounting counts differ"
	case got.NetlistHash != want.NetlistHash || got.Timing != want.Timing:
		return "netlist hash or timing differs"
	}
	return ""
}

// TestTruncatedSegmentRecomputes cuts a cold run's segment in the
// middle of its last record, as a crash mid-write would. The next Open
// never reads that torn tail — it counts it as the one decode error
// and no read fails — and the torn entry recomputes bit-identically to
// cache-off. That Open also compacts the torn tail away.
func TestTruncatedSegmentRecomputes(t *testing.T) {
	off := measureExec(t, Options{})
	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	measureExec(t, Options{Cache: ch})
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	torn, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := measureExec(t, Options{Cache: torn})
	if diff := sameMeasurement(got, off); diff != "" {
		t.Errorf("after a torn tail: %s", diff)
	}
	if s := torn.Stats(); s.DecodeErrors != 1 || s.Misses == 0 {
		t.Errorf("stats = %+v, want the torn tail as the only decode error and its entry missed", s)
	}

	warm, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := measureExec(t, Options{Cache: warm}); sameMeasurement(got, off) != "" {
		t.Error("warm run after the repair diverged from cache-off")
	}
	if s := warm.Stats(); s.DecodeErrors != 0 || s.Misses != 0 || s.Hits != 2 {
		t.Errorf("stats = %+v, want two clean hits (search + sig) after the repair", s)
	}
}

// TestTwoWritersOneDirectory: two handles opened on one directory
// before either writes — two processes sharing a cache — measure
// different units concurrently, each appending to its own segment. A
// third Open sees both sets of records: it answers every unit from
// disk, bit-identically to cache-off. Two sessions on one handle that
// race on one unit are the same case inside a process.
func TestTwoWritersOneDirectory(t *testing.T) {
	labels := []string{"IVM-Execute", "IVM-Decode"}
	dir := t.TempDir()
	type job struct {
		d   *hdl.Design
		top string
		ch  *cache.Cache
	}
	jobs := make([]job, len(labels))
	for i, label := range labels {
		c, err := designs.ByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		d, err := designs.Design(c)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{d, c.Top, ch}
	}
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		go func() {
			_, err := MeasureComponent(j.d, j.top, true, Options{Cache: j.ch})
			errs <- err
		}()
	}
	for range jobs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if segs, err := filepath.Glob(filepath.Join(dir, "*.seg")); err != nil || len(segs) != 2 {
		t.Fatalf("segments %v (err %v), want one per writer", segs, err)
	}

	third, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		want, err := MeasureComponent(j.d, j.top, true, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := MeasureComponent(j.d, j.top, true, Options{Cache: third})
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameMeasurement(got, want); diff != "" {
			t.Errorf("%s: %s", j.top, diff)
		}
	}
	if s := third.Stats(); s.Hits != 2*int64(len(jobs)) || s.Misses != 0 {
		t.Errorf("third handle stats = %+v, want every unit's search and sig a hit", s)
	}

	// One handle, two sessions, the same unit at once. The cache does
	// not coalesce them, so both may compute a key and append it twice;
	// the duplicates hold identical bytes, so both results equal
	// cache-off and a fresh Open answers every search and sig from disk.
	d, top := execDesign(t)
	want, err := MeasureComponent(d, top, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dup := t.TempDir()
	ch, err := cache.Open(dup)
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]*ComponentResult
	var gotErr [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], gotErr[i] = NewSession(d).MeasureAll([]Unit{{Top: top, UseAccounting: true}}, Options{Cache: ch})
		}()
	}
	wg.Wait()
	for i := range got {
		if gotErr[i] != nil {
			t.Fatal(gotErr[i])
		}
		if diff := sameMeasurement(got[i][0], want); diff != "" {
			t.Errorf("session %d on the shared handle: %s", i, diff)
		}
	}
	fresh, err := cache.Open(dup)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureComponent(d, top, true, Options{Cache: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameMeasurement(res, want); diff != "" {
		t.Errorf("fresh handle after duplicate writers: %s", diff)
	}
	if s := fresh.Stats(); s.Misses != 0 || s.DecodeErrors != 0 {
		t.Errorf("fresh handle stats = %+v, want no miss and no decode error", s)
	}
	for _, kind := range []string{"search", "sig"} {
		if k := fresh.KindStats()[kind]; k.Hits != 1 || k.Misses != 0 {
			t.Errorf("fresh handle %s stats = %+v, want one hit", kind, k)
		}
	}
}

// TestOldLayoutEntriesIgnored fills a directory with entry files of the
// one-file-per-entry layout segments replaced: one per key a cold run
// writes, each a valid envelope for its key at today's schema but
// holding another component's record. A run on that directory must
// not read them — its results equal cache-off's, with no hit and no
// decode error — must leave them byte for byte, and must write
// segments only.
func TestOldLayoutEntriesIgnored(t *testing.T) {
	off := measureExec(t, Options{})

	// Another component's records, to plant under IVM-Execute's keys.
	dc, err := designs.ByLabel("IVM-Decode")
	if err != nil {
		t.Fatal(err)
	}
	dd, err := designs.Design(dc)
	if err != nil {
		t.Fatal(err)
	}
	other, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureComponent(dd, dc.Top, true, Options{Cache: other}); err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{}
	for key := range CacheRecords(t, other.Dir()) {
		switch cache.KindOf(key) {
		case "search":
			sr, _ := cache.Get(other, key, searchCodec)
			payloads["search"] = searchCodec.Append(nil, sr)
		case "sig":
			sig, _ := cache.Get(other, key, sigRecordCodec)
			payloads["sig"] = sigRecordCodec.Append(nil, sig)
		}
	}

	cold, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	measureExec(t, Options{Cache: cold})
	dir := t.TempDir()
	planted := map[string][]byte{}
	for _, key := range recordKeys(t, cold.Dir()) {
		name := key + ".ucx"
		planted[name] = codec.EncodeEntry(nil, cache.SchemaVersion, key, payloads[cache.KindOf(key)], -1)
		if err := os.WriteFile(filepath.Join(dir, name), planted[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := measureExec(t, Options{Cache: ch})
	if diff := sameMeasurement(got, off); diff != "" {
		t.Errorf("with old-layout entries present: %s", diff)
	}
	if s := ch.Stats(); s.Hits != 0 || s.DecodeErrors != 0 {
		t.Errorf("stats = %+v, want the old entries unread", s)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if want, ok := planted[name]; ok {
			if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(b, want) {
				t.Errorf("old entry %s changed (err %v)", name, err)
			}
			delete(planted, name)
		} else if filepath.Ext(name) != ".seg" {
			t.Errorf("run wrote %s, want segments only", name)
		}
	}
	if len(planted) != 0 {
		t.Errorf("%d old entries removed", len(planted))
	}
}

// legacyComponentKey is the key the removed per-unit "component"
// records lived under: the unit's subtree hash, its top's name, the
// accounting flag and the measurement options.
func legacyComponentKey(t *testing.T, d *hdl.Design, top string, acct bool) string {
	t.Helper()
	st, err := d.SubtreeHash(top)
	if err != nil {
		t.Fatal(err)
	}
	return cache.KindKey("component", st, top, fmt.Sprintf("acct=%t", acct),
		targetLib, targetFPGA, fmt.Sprintf("dedup=%t", acct))
}

// appendLegacyAccounting writes the modules and sorted parameters
// every component record layout shares.
func appendLegacyAccounting(dst []byte, res *ComponentResult) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(res.UniqueModules)))
	for _, name := range res.UniqueModules {
		dst = codec.AppendString(dst, name)
	}
	names := make([]string, 0, len(res.MinimizedParams))
	for name := range res.MinimizedParams {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = codec.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = codec.AppendString(dst, name)
		dst = codec.AppendVarint(dst, res.MinimizedParams[name])
	}
	dst = codec.AppendVarint(dst, int64(res.InstanceCount))
	return codec.AppendVarint(dst, int64(res.DedupedInstances))
}

// Payloads of the earlier record layouts. The record version and any
// presence byte are written raw. Component versions 1 and 2 and sig
// version 1 carry the whole optimized netlist behind a presence byte
// (1); component version 1 also stored the search's probe counters and
// the subtree counters of whichever run populated the entry.
func componentV1Payload(res *ComponentResult, _ *sigRecord, nl *netlist.Netlist) []byte {
	dst := []byte{1, 1}
	dst = appendLegacyAccounting(appendMetrics(dst, res.Metrics), res)
	for _, counter := range []int64{7, 3, 11, 5, 13} {
		dst = codec.AppendVarint(dst, counter)
	}
	return codec.AppendNetlist(append(dst, 1), nl)
}

func componentV2Payload(res *ComponentResult, _ *sigRecord, nl *netlist.Netlist) []byte {
	dst := []byte{2, 1}
	dst = appendLegacyAccounting(appendMetrics(dst, res.Metrics), res)
	return codec.AppendNetlist(append(dst, 1), nl)
}

func sigV1Payload(_ *ComponentResult, sig *sigRecord, nl *netlist.Netlist) []byte {
	dst := appendMetrics([]byte{1, 1}, sig.Metrics)
	dst = codec.AppendVarint(dst, int64(sig.InstanceCount))
	dst = codec.AppendVarint(dst, int64(sig.Deduped))
	return codec.AppendNetlist(append(dst, 1), nl)
}

// componentV3Payload is the last component layout, whose netlist
// hashes still covered RAM names; sigV2Payload is the current sig
// layout under that version.
func componentV3Payload(res *ComponentResult, _ *sigRecord, _ *netlist.Netlist) []byte {
	dst := appendLegacyAccounting(appendMetrics([]byte{3}, res.Metrics), res)
	return appendTiming(codec.AppendString(dst, res.NetlistHash), res.Timing)
}

func sigV2Payload(_ *ComponentResult, sig *sigRecord, _ *netlist.Netlist) []byte {
	return relabel(sigRecordCodec.Append(nil, sig), 2)
}

// relabel sets an encoded payload's structure version byte.
func relabel(payload []byte, version byte) []byte {
	payload[0] = version
	return payload
}

// rawPayload stores already-encoded payload bytes as a cache entry.
var rawPayload = codec.Codec[[]byte]{
	Name:   "raw",
	Append: func(dst, b []byte) []byte { return append(dst, b...) },
}

// recordKeys lists the keys of a cache directory's records, sorted.
func recordKeys(t *testing.T, dir string) []string {
	t.Helper()
	var keys []string
	for key := range CacheRecords(t, dir) {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// damageRecord flips the last payload byte of key's record in place,
// so the record's CRC no longer matches.
func damageRecord(t *testing.T, dir, key string) {
	t.Helper()
	env, ok := CacheRecords(t, dir)[key]
	if !ok {
		t.Fatalf("no record for %s", key)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(data, env); i >= 0 {
			data[i+len(env)-1] ^= 0x40
			if err := os.WriteFile(seg, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("record for %s not found in %v", key, segs)
}

// TestOldRecordVersionsRecompute plants a record of each earlier
// layout, each into a fresh directory. A sig record of versions 1 and
// 2 sits under its real key: it must decode as corrupt (one
// DecodeErrors), be recomputed bit-identically to the reference
// pipeline, and be rewritten under the same key. A component record of
// versions 1 to 3 sits under the key the removed per-unit records used:
// no read ever reaches it, so it costs no decode error, the run writes
// the cold run's search and sig records beside it, and it stays on
// disk as an orphan. Either way the result carries this run's search
// counters.
func TestOldRecordVersionsRecompute(t *testing.T) {
	d, top := execDesign(t)
	want, err := measureComponentRef(d, top, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inst, rep, err := elab.ElaborateOpts(d, top, want.MinimizedParams, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := synth.SynthesizeInstance(inst, rep, synth.LowerOptions{DedupInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	nl := syn.Optimized
	if nl.Hash() != want.NetlistHash {
		t.Fatal("reference netlist hash does not match its synthesis")
	}

	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := measureExec(t, Options{Cache: ch})
	cold := recordKeys(t, dir)
	var sigKey string
	for _, key := range cold {
		if cache.KindOf(key) == "sig" {
			sigKey = key
		}
	}
	sig, ok := cache.Get(ch, sigKey, sigRecordCodec)
	if !ok {
		t.Fatal("cold run wrote no sig record")
	}
	compKey := legacyComponentKey(t, d, top, true)

	for _, tc := range []struct {
		name       string
		kind       string
		payload    func(*ComponentResult, *sigRecord, *netlist.Netlist) []byte
		decodeErrs int64
	}{
		{"component v1", "component", componentV1Payload, 0},
		{"component v2", "component", componentV2Payload, 0},
		{"component v3", "component", componentV3Payload, 0},
		{"sig v1", "sig", sigV1Payload, 1},
		{"sig v2", "sig", sigV2Payload, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := tc.payload(want, sig, nl)
			key, wantKeys := compKey, append(slices.Clone(cold), compKey)
			if tc.kind == "sig" {
				key, wantKeys = sigKey, cold
				if _, err := sigRecordCodec.Decode(codec.NewReader(payload)); !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("old payload decoded with err %v, want ErrCorrupt", err)
				}
			}
			sort.Strings(wantKeys)
			ch, err := cache.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := cache.Put(ch, key, rawPayload, payload); err != nil {
				t.Fatal(err)
			}

			before := ch.Stats()
			again := measureExec(t, Options{Cache: ch})
			after := ch.Stats()
			if got := after.DecodeErrors - before.DecodeErrors; got != tc.decodeErrs {
				t.Errorf("decode errors grew by %d, want %d", got, tc.decodeErrs)
			}
			if got := after.Hits - before.Hits; got != 0 {
				t.Errorf("%d hits, want none", got)
			}
			if got := after.Puts - before.Puts; got != 2 {
				t.Errorf("puts grew by %d, want 2 (search + sig)", got)
			}
			for name, got := range map[string]*ComponentResult{"first": first, "recomputed": again} {
				if diff := sameMeasurement(got, want); diff != "" {
					t.Errorf("%s result diverged from the reference: %s", name, diff)
				}
			}
			if again.ElabCacheHits != first.ElabCacheHits || again.ElabCacheMisses != first.ElabCacheMisses {
				t.Errorf("recomputed search counters %d/%d, want this run's %d/%d",
					again.ElabCacheHits, again.ElabCacheMisses, first.ElabCacheHits, first.ElabCacheMisses)
			}
			if got := recordKeys(t, ch.Dir()); !slices.Equal(got, wantKeys) {
				t.Errorf("records after recompute %v, want %v", got, wantKeys)
			}
			if _, ok := cache.Get(ch, sigKey, sigRecordCodec); !ok {
				t.Error("sig record not readable at the current version")
			}
		})
	}
}

// TestSearchKeyPinned pins search- keys byte for byte, with and
// without a namespace, and checks a cold accounting measurement writes
// its search under the key: the key is the name a persisted search
// lives under, so a layout change would leave every existing entry
// orphaned on disk instead of overwritten.
func TestSearchKeyPinned(t *testing.T) {
	c := designs.All()[0]
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Label() != "Leon3-Pipeline" {
		t.Fatalf("first corpus component is %s, want Leon3-Pipeline", c.Label())
	}
	st, err := d.StructuralHash(c.Top)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ ns, want string }{
		{"", "search-ba8344bf687a1e901058128ec308eb3cb4bb2781feeac221674730466142967c"},
		{"t", "search-9ea9092a64b7effdca2f656efb91ebd3d9f657e76f1bceafc0bc6de47331d68c"},
	} {
		key := searchKey(st, Options{Namespace: tc.ns})
		if key != tc.want {
			t.Errorf("%s ns=%q: key %s, want %s", c.Label(), tc.ns, key, tc.want)
		}
		ch, err := cache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MeasureComponent(d, c.Top, true, Options{Cache: ch, Namespace: tc.ns}); err != nil {
			t.Fatal(err)
		}
		var searches []string
		for _, k := range recordKeys(t, ch.Dir()) {
			if cache.KindOf(k) == "search" {
				searches = append(searches, k)
			}
		}
		if len(searches) != 1 || searches[0] != key {
			t.Errorf("ns=%q: search records %v, want [%s]", tc.ns, searches, key)
		}
	}
}

// TestSigAndOptionsKeysPinned pins the other two key families byte for
// byte: the disk key of a signature record (read back from the records
// a cold one-unit batch writes) and the dependency graph's options key.
// Both embed the fixed measurement target's key parts, which must keep
// the spelling of the library and FPGA options they replaced.
func TestSigAndOptionsKeysPinned(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "lib=generic180|fpga=K0;0;0;0;0;0"},
		{Options{Namespace: "t"}, "lib=generic180|fpga=K0;0;0;0;0;0|ns=t"},
	} {
		if got := optionsKey(tc.opts); got != tc.want {
			t.Errorf("optionsKey(%+v) = %q, want %q", tc.opts, got, tc.want)
		}
	}

	c := designs.All()[0]
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureComponent(d, c.Top, false, Options{Cache: ch}); err != nil {
		t.Fatal(err)
	}
	var sigs []string
	for _, key := range recordKeys(t, dir) {
		if cache.KindOf(key) == "sig" {
			sigs = append(sigs, key)
		}
	}
	want := "sig-509e7d5b1f567e1bd5b414be1789a524b828e692a159e7a1e3acf5b041adf047"
	if len(sigs) != 1 || sigs[0] != want {
		t.Errorf("%s: sig records %v, want [%s]", c.Label(), sigs, want)
	}
}
