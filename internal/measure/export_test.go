package measure

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
)

// MeasureComponentRef exposes the test-only reference pipeline to the
// external golden tests.
var MeasureComponentRef = measureComponentRef

// CacheRecords reads every intact record of a cache directory's
// segment files: key → envelope bytes, a later record of a key
// replacing an earlier one, as the cache's index does.
func CacheRecords(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) > 0 {
			n, w := binary.Uvarint(data)
			if w <= 0 || n > uint64(len(data)-w) {
				break // torn tail
			}
			env := data[w : w+int(n)]
			data = data[w+int(n):]
			if key, err := codec.EntryKey(env); err == nil {
				out[key] = env
			}
		}
	}
	return out
}
