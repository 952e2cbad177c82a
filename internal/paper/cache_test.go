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
	// The cold pass misses each component record once (plus one "sig"
	// record per distinct signature, counted under its own kind); the
	// warm pass answers every component from disk.
	ks := ch.KindStats()
	if kc := ks["component"]; int(kc.Misses) != len(plain) || int(kc.Hits) != len(plain) {
		t.Errorf("component-kind counters = %+v, want %d misses then %d hits", kc, len(plain), len(plain))
	}
	if kc := ks["sig"]; kc.Misses == 0 || kc.Hits != 0 {
		t.Errorf("sig-kind counters = %+v, want cold misses and no warm traffic", kc)
	}
}
