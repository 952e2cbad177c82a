package hdl

import (
	"sort"

	"repro/internal/parallel"
)

// ParseDesignParallel parses named sources (name → text) into one
// Design on a bounded worker pool. Files parse concurrently but are
// added in sorted name order, so the result — modules, file order,
// error selection — is identical for every worker count. concurrency 0
// means GOMAXPROCS, 1 means sequential.
//
// A file whose name and text match what the process last parsed under
// that name is not parsed again: the design shares the earlier
// *SourceFile, module hashes included (see parseMemo). Re-parsing an
// edited corpus therefore costs the files that changed.
func ParseDesignParallel(sources map[string]string, concurrency int) (*Design, error) {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files, err := parallel.Map(concurrency, len(names), func(i int) (*SourceFile, error) {
		return parsed.parse(names[i], sources[names[i]])
	})
	if err != nil {
		return nil, err
	}
	return NewDesign(files...)
}
