package hdl

import (
	"container/list"
	"sync"
)

// parseMemoCap bounds the source text the parse memo retains, in bytes.
// It holds a generated 1000-component corpus (about 0.95 MB of source)
// whole, so a sweep that re-parses it reuses every file. Retained ASTs
// weigh 11–14× their source text, so the cap also bounds the memo's
// heap at roughly 30 MB.
const parseMemoCap = 2 << 20

// parsed is the process-wide parse memo behind ParseDesignParallel.
var parsed parseMemo

// parseMemo remembers, per file name, the text last parsed under that
// name and the resulting *SourceFile, and hands the same SourceFile
// back while the text is unchanged. It keeps one version per name (a
// new text replaces the old entry) and evicts least-recently-used names
// once the retained text exceeds parseMemoCap. Files that fail to parse
// are never stored. The key includes the name because positions do:
// two files with identical text still have different Pos.File.
//
// Sharing is safe because SourceFiles are immutable once Parse returns
// (see the package documentation).
type parseMemo struct {
	mu      sync.Mutex
	entries map[string]*list.Element // name → element holding *memoEntry
	recent  list.List                // most recently used at the front
	bytes   int                      // sum of len(src) over entries
}

type memoEntry struct {
	name, src string
	file      *SourceFile
}

// parse returns the memoized SourceFile for (name, src), parsing and
// storing it on a miss.
func (m *parseMemo) parse(name, src string) (*SourceFile, error) {
	m.mu.Lock()
	if el, ok := m.entries[name]; ok {
		if e := el.Value.(*memoEntry); e.src == src {
			m.recent.MoveToFront(el)
			m.mu.Unlock()
			return e.file, nil
		}
	}
	m.mu.Unlock()

	f, err := Parse(name, src)
	if err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil {
		m.entries = map[string]*list.Element{}
	}
	if el, ok := m.entries[name]; ok {
		m.remove(el)
	}
	m.entries[name] = m.recent.PushFront(&memoEntry{name: name, src: src, file: f})
	m.bytes += len(src)
	for m.bytes > parseMemoCap {
		m.remove(m.recent.Back())
	}
	return f, nil
}

// remove drops one entry. Caller holds m.mu.
func (m *parseMemo) remove(el *list.Element) {
	e := m.recent.Remove(el).(*memoEntry)
	delete(m.entries, e.name)
	m.bytes -= len(e.src)
}
