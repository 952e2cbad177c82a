package paper

import (
	"reflect"
	"testing"

	"repro/internal/cache"
)

// TestMeasureCorpusCacheDeterminism pins the cache contract at the
// experiment level: the corpus measured with no cache, a cold cache,
// and a warm cache — the last under a parallel pool, where the
// single-flight path is exercised — is bit-identical.
func TestMeasureCorpusCacheDeterminism(t *testing.T) {
	ch, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := measureCorpusOpts(true, Opts{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := measureCorpusOpts(true, Opts{Concurrency: 1, Cache: ch})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := measureCorpusOpts(true, Opts{Concurrency: 8, Cache: ch})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Error("cold-cache corpus diverged from uncached corpus")
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Error("warm-cache parallel corpus diverged from uncached corpus")
	}
	// The cold pass misses each search record once and each "sig"
	// record once per distinct signature; the warm pass reads every
	// one of them back, once, and writes nothing. No record is kept
	// per component.
	ks := ch.KindStats()
	if kc := ks["search"]; int(kc.Misses) != len(plain) || int(kc.Hits) != len(plain) || int(kc.Puts) != len(plain) {
		t.Errorf("search-kind counters = %+v, want %d misses then %d hits", kc, len(plain), len(plain))
	}
	if kc, ok := ks["component"]; ok {
		t.Errorf("component-kind counters = %+v, want no component traffic", kc)
	}
	if kc := ks["sig"]; kc.Misses == 0 || kc.Hits != kc.Misses || kc.Puts != kc.Misses {
		t.Errorf("sig-kind counters = %+v, want cold misses, each read back once warm", kc)
	}
}
