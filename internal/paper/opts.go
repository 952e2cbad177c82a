package paper

import (
	"repro/internal/cache"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/measure"
)

// Opts configures the experiments that measure a corpus through the
// synthesis pipeline (Figure6Opts, TimingAwareOpts,
// CorpusScaleConfig). The dataset-only reproductions
// (Tables, Figures 2-5, AIC/BIC) refit the paper's published data and
// take no options beyond concurrency.
type Opts struct {
	// Concurrency bounds the worker pools (0 = GOMAXPROCS,
	// 1 = exact sequential path). Results are identical for every
	// value.
	Concurrency int
	// Cache, when non-nil, is the on-disk measurement cache threaded
	// into every component measurement. Results are bit-identical with
	// and without it.
	Cache *cache.Cache
	// ElabStats, when non-nil, aggregates the session elaboration-cache
	// counters of every accounting search across the corpus (purely
	// observational; results are unchanged).
	ElabStats *elab.StatsRecorder
	// Session, when non-nil, is the shared measurement session every
	// corpus-measuring experiment batches through, so one ucpaper run
	// that prints Figure 6 and the timing extension parses the corpus
	// once and synthesizes each distinct (module, parameters) signature
	// once across all of them. It must have been created over
	// designs.FullDesign(). When nil, each experiment creates its own.
	// Results are bit-identical either way.
	Session *measure.Session
}

// session returns the shared measurement session, creating one over
// the full corpus design when the caller did not supply one.
func (o Opts) session() (*measure.Session, error) {
	if o.Session != nil {
		return o.Session, nil
	}
	return NewSession()
}

// measureOptions lowers Opts to the batch measurement options of a
// Session.
func (o Opts) measureOptions() measure.Options {
	return measure.Options{Concurrency: o.Concurrency, Cache: o.Cache, ElabStats: o.ElabStats}
}

// NewSession creates the shared measurement session ucpaper threads
// through a multi-experiment run (one per process; see Opts.Session).
func NewSession() (*measure.Session, error) {
	full, err := designs.FullDesign()
	if err != nil {
		return nil, err
	}
	return measure.NewSession(full), nil
}
