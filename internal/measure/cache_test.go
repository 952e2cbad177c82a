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
// timing summary, so downstream readers see the identical values. A cold one-unit batch
// writes two entries: the unit's "component" record and its
// signature's "sig" record.

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
	if s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses (cold component + sig) and 1 hit (warm component)", s)
	}
	// The search counters describe a run, not a result: the cold run
	// searched, the warm hit ran no search and reports none.
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
	if s := ch2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("reopened cache stats = %+v, want pure hit", s)
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
		t.Errorf("stats = %+v, want 2 clean verify checks (component + sig)", s)
	}
}

func TestCacheCorruptedComponentEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	ch, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := measureExec(t, Options{Cache: ch})

	d, top := execDesign(t)
	compKey, err := componentKey(d, top, true, Options{Cache: ch})
	if err != nil {
		t.Fatal(err)
	}
	damageRecord(t, dir, compKey)

	again := measureExec(t, Options{Cache: ch})
	if *again.Metrics != *first.Metrics {
		t.Error("recomputed measurement diverged after corruption")
	}
	// Cold: component + sig misses. Again: the damaged component record
	// fails its CRC on read, is dropped and missed; the intact sig
	// record hits.
	s := ch.Stats()
	if s.DecodeErrors == 0 || s.Misses != 3 {
		t.Errorf("stats = %+v, want the corrupt entry discarded and recomputed", s)
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
	if s := warm.Stats(); s.DecodeErrors != 0 || s.Misses != 0 || s.Hits != 1 {
		t.Errorf("stats = %+v, want one clean hit after the repair", s)
	}
}

// TestTwoWritersOneDirectory: two handles opened on one directory
// before either writes — two processes sharing a cache — measure
// different units concurrently, each appending to its own segment. A
// third Open sees both sets of records: it answers every unit from
// disk, bit-identically to cache-off.
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
	if s := third.Stats(); s.Hits != int64(len(jobs)) || s.Misses != 0 {
		t.Errorf("third handle stats = %+v, want every unit a hit", s)
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
		case "component":
			rec, _ := cache.Get(other, key, recordCodec)
			payloads["component"] = recordCodec.Append(nil, rec)
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

// appendLegacyAccounting writes the modules and sorted parameters
// every component record layout shares.
func appendLegacyAccounting(dst []byte, rec *componentRecord) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(rec.UniqueModules)))
	for _, name := range rec.UniqueModules {
		dst = codec.AppendString(dst, name)
	}
	names := make([]string, 0, len(rec.MinimizedParams))
	for name := range rec.MinimizedParams {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = codec.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = codec.AppendString(dst, name)
		dst = codec.AppendVarint(dst, rec.MinimizedParams[name])
	}
	dst = codec.AppendVarint(dst, int64(rec.InstanceCount))
	return codec.AppendVarint(dst, int64(rec.DedupedInstances))
}

// Payloads of the earlier record layouts, each carrying the whole
// optimized netlist behind a presence byte (1). The record version and
// the presence byte are written raw. Component version 1 also
// stored the search's probe counters and the subtree counters of
// whichever run populated the entry.
func componentV1Payload(rec *componentRecord, _ *sigRecord, nl *netlist.Netlist) []byte {
	dst := []byte{1, 1}
	dst = appendLegacyAccounting(appendMetrics(dst, rec.Metrics), rec)
	for _, counter := range []int64{7, 3, 11, 5, 13} {
		dst = codec.AppendVarint(dst, counter)
	}
	return codec.AppendNetlist(append(dst, 1), nl)
}

func componentV2Payload(rec *componentRecord, _ *sigRecord, nl *netlist.Netlist) []byte {
	dst := []byte{2, 1}
	dst = appendLegacyAccounting(appendMetrics(dst, rec.Metrics), rec)
	return codec.AppendNetlist(append(dst, 1), nl)
}

func sigV1Payload(_ *componentRecord, sig *sigRecord, nl *netlist.Netlist) []byte {
	dst := appendMetrics([]byte{1, 1}, sig.Metrics)
	dst = codec.AppendVarint(dst, int64(sig.InstanceCount))
	dst = codec.AppendVarint(dst, int64(sig.Deduped))
	return codec.AppendNetlist(append(dst, 1), nl)
}

// componentV3Payload and sigV2Payload are the current layouts under the
// versions whose netlist hashes still covered RAM names.
func componentV3Payload(rec *componentRecord, _ *sigRecord, _ *netlist.Netlist) []byte {
	return relabel(recordCodec.Append(nil, rec), 3)
}

func sigV2Payload(_ *componentRecord, sig *sigRecord, _ *netlist.Netlist) []byte {
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
// layout — component versions 1 and 2 and sig version 1, all still
// carrying the optimized netlist — under its real key. Each must
// decode as corrupt (one DecodeErrors), be recomputed bit-identically
// to the reference pipeline with this run's search counters, and be
// rewritten under the same key. A planted sig record is only read when
// its unit's component record misses, so that row plants into a fresh
// directory that holds no component record and expects both written.
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

	for _, tc := range []struct {
		name    string
		kind    string
		payload func(*componentRecord, *sigRecord, *netlist.Netlist) []byte
		puts    int64
	}{
		{"component v1", "component", componentV1Payload, 1},
		{"component v2", "component", componentV2Payload, 1},
		{"component v3", "component", componentV3Payload, 1},
		{"sig v1", "sig", sigV1Payload, 2},
		{"sig v2", "sig", sigV2Payload, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ch, err := cache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			first := measureExec(t, Options{Cache: ch})
			cold := recordKeys(t, dir)
			compKey, err := componentKey(d, top, true, Options{Cache: ch})
			if err != nil {
				t.Fatal(err)
			}
			var sigKey string
			for _, key := range cold {
				if cache.KindOf(key) == "sig" {
					sigKey = key
				}
			}
			rec, ok := cache.Get(ch, compKey, recordCodec)
			if !ok {
				t.Fatal("cold run wrote no component record")
			}
			sig, ok := cache.Get(ch, sigKey, sigRecordCodec)
			if !ok {
				t.Fatal("cold run wrote no sig record")
			}

			payload := tc.payload(rec, sig, nl)
			key := compKey
			var decodeErr error
			if tc.kind == "sig" {
				key = sigKey
				_, decodeErr = sigRecordCodec.Decode(codec.NewReader(payload))
				if ch, err = cache.Open(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			} else {
				_, decodeErr = recordCodec.Decode(codec.NewReader(payload))
			}
			if !errors.Is(decodeErr, codec.ErrCorrupt) {
				t.Fatalf("old payload decoded with err %v, want ErrCorrupt", decodeErr)
			}
			if err := cache.Put(ch, key, rawPayload, payload); err != nil {
				t.Fatal(err)
			}

			before := ch.Stats()
			again := measureExec(t, Options{Cache: ch})
			after := ch.Stats()
			if got := after.DecodeErrors - before.DecodeErrors; got != 1 {
				t.Errorf("decode errors grew by %d, want 1 (the planted record)", got)
			}
			if got := after.Puts - before.Puts; got != tc.puts {
				t.Errorf("puts grew by %d, want %d", got, tc.puts)
			}
			for name, got := range map[string]*ComponentResult{"first": first, "recomputed": again} {
				if *got.Metrics != *want.Metrics || !maps.Equal(got.MinimizedParams, want.MinimizedParams) ||
					got.InstanceCount != want.InstanceCount || got.DedupedInstances != want.DedupedInstances ||
					got.NetlistHash != want.NetlistHash || got.Timing != want.Timing {
					t.Errorf("%s result diverged from the reference", name)
				}
			}
			if again.ElabCacheHits != first.ElabCacheHits || again.ElabCacheMisses != first.ElabCacheMisses {
				t.Errorf("recomputed search counters %d/%d, want this run's %d/%d",
					again.ElabCacheHits, again.ElabCacheMisses, first.ElabCacheHits, first.ElabCacheMisses)
			}
			if got := recordKeys(t, ch.Dir()); !slices.Equal(got, cold) {
				t.Errorf("records after recompute %v, want the cold run's %v", got, cold)
			}
			if _, ok := cache.Get(ch, compKey, recordCodec); !ok {
				t.Error("component record not readable at the current version")
			}
			if _, ok := cache.Get(ch, sigKey, sigRecordCodec); !ok {
				t.Error("sig record not readable at the current version")
			}
		})
	}
}

// TestComponentKeyPinned pins component- keys byte for byte, accounting
// on and off, with and without a namespace: the key is the name a
// persisted record lives under, so a layout change would leave every
// existing entry orphaned on disk instead of overwritten.
func TestComponentKeyPinned(t *testing.T) {
	c := designs.All()[0]
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"component-e2d387254b367064c7f80a259bc1e31a92547159086e792f131d5af662c67098",
		"component-14123b1e8c2f84fb225dda35bd1cecf320998aa04fdf3916faee2c5214e79538",
		"component-2968ec4e0fc19089ca14fe6a2bcdf430dc6a94236b1de3587229f42d6589c9fd",
		"component-7b4e2d9ccdd19f4f2ceb8da83b55b93275f983ead890c665ade12fc98f40d9c1",
	}
	i := 0
	for _, ns := range []string{"", "t"} {
		for _, acct := range []bool{false, true} {
			got, err := componentKey(d, c.Top, acct, Options{Namespace: ns})
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("%s acct=%t ns=%q: key %s, want %s", c.Label(), acct, ns, got, want[i])
			}
			i++
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
