package measure

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
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

	entries, err := filepath.Glob(filepath.Join(dir, "component-*.ucx"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("component entries = %v (err %v), want exactly one", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}

	again := measureExec(t, Options{Cache: ch})
	if *again.Metrics != *first.Metrics {
		t.Error("recomputed measurement diverged after corruption")
	}
	// Cold: component + sig misses. Again: the damaged component entry
	// is discarded and missed; the intact sig entry hits.
	s := ch.Stats()
	if s.DecodeErrors == 0 || s.Misses != 3 {
		t.Errorf("stats = %+v, want the corrupt entry discarded and recomputed", s)
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

// rawPayload stores already-encoded payload bytes as a cache entry.
var rawPayload = codec.Codec[[]byte]{
	Name:   "raw",
	Append: func(dst, b []byte) []byte { return append(dst, b...) },
}

// entryNames lists a cache directory's entry files.
func entryNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.ucx"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestOldRecordVersionsRecompute plants an entry of each earlier
// record layout — component versions 1 and 2 and sig version 1, all
// still carrying the optimized netlist — under its real key. Each must
// decode as corrupt (one DecodeErrors), be recomputed bit-identically
// to the reference pipeline with this run's search counters, and be
// rewritten in place under the same key. A planted sig record is only
// read when its unit's component record misses, so that row deletes
// the component entry and expects both rewritten.
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
		{"sig v1", "sig", sigV1Payload, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ch, err := cache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Cache: ch}
			first := measureExec(t, opts)
			cold := entryNames(t, dir)
			compKey, err := componentKey(d, top, true, opts)
			if err != nil {
				t.Fatal(err)
			}
			sigs, err := filepath.Glob(filepath.Join(dir, "sig-*.ucx"))
			if err != nil || len(sigs) != 1 {
				t.Fatalf("sig entries = %v (err %v), want exactly one", sigs, err)
			}
			sigKey := strings.TrimSuffix(filepath.Base(sigs[0]), ".ucx")
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
				if err := os.Remove(filepath.Join(dir, compKey+".ucx")); err != nil {
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
			again := measureExec(t, opts)
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
			if got := entryNames(t, dir); !slices.Equal(got, cold) {
				t.Errorf("entries after recompute %v, want the cold run's %v", got, cold)
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
// byte: the disk key of a signature record (read back from the file a
// cold one-unit batch writes) and the dependency graph's options key.
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
	sigs, err := filepath.Glob(filepath.Join(dir, "sig-*.ucx"))
	if err != nil {
		t.Fatal(err)
	}
	want := "sig-11ee2d4b7fe80628d16103734546760a9e150e536c2022146a6f9f6d8127c768.ucx"
	if len(sigs) != 1 || filepath.Base(sigs[0]) != want {
		t.Errorf("%s: sig records %v, want [%s]", c.Label(), sigs, want)
	}
}
