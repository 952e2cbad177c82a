package hdl

// Hooks for the external hdl_test package.

// CounterSrc is the counter design of the parser tests.
const CounterSrc = counterSrc

// ParseMemoCap is the parse memo's bound on retained source bytes.
const ParseMemoCap = parseMemoCap

// ParseMemo is a private parse memo with the process-wide memo's
// limits, for tests that inspect what it retains.
type ParseMemo struct{ m parseMemo }

func (p *ParseMemo) Parse(name, src string) (*SourceFile, error) { return p.m.parse(name, src) }

// Retained returns the memo's accounted source bytes and the text it
// holds per file name.
func (p *ParseMemo) Retained() (int, map[string]string) { return p.m.retained() }

// MemoizedText returns the text the process-wide memo holds for name.
func MemoizedText(name string) (string, bool) {
	_, texts := parsed.retained()
	src, ok := texts[name]
	return src, ok
}

func (m *parseMemo) retained() (int, map[string]string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	texts := map[string]string{}
	for el := m.recent.Front(); el != nil; el = el.Next() {
		e := el.Value.(*memoEntry)
		texts[e.name] = e.src
	}
	return m.bytes, texts
}
