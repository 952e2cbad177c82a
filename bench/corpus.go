package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/elab"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/paper"
)

// corpusOutput is what one cold corpus sweep computed.
type corpusOutput struct {
	with, without map[string]float64 // estimator → σε
	cache         cache.Stats
	disk          cache.DiskStats
	session       measure.SessionStats
}

// corpusUnits lists the sweep's units: every component with the
// accounting procedure, then every component without it.
func corpusUnits(corpus *gencorpus.Corpus) []measure.Unit {
	n := len(corpus.Components)
	units := make([]measure.Unit, 0, 2*n)
	for _, acct := range []bool{true, false} {
		for _, c := range corpus.Components {
			units = append(units, measure.Unit{Top: c.Top, UseAccounting: acct})
		}
	}
	return units
}

// corpusOp is one `ucpaper -corpus-scale N` sweep on a fresh, empty
// cache directory: parse the generated sources, stream-measure every
// component with and without accounting, and fit every estimator on
// both halves against the generator's efforts.
func corpusOp(tr *tracer, root, op int, corpus *gencorpus.Corpus, units []measure.Unit, c *cache.Cache, rec *elab.StatsRecorder) (*corpusOutput, error) {
	out := &corpusOutput{with: map[string]float64{}, without: map[string]float64{}}
	var design *hdl.Design
	err := tr.do("hdl.parse", root, op, func() (err error) {
		design, err = hdl.ParseDesignParallel(corpus.Files, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	sess := measure.NewSession(design)
	n := len(corpus.Components)
	with := make([]dataset.Component, n)
	without := make([]dataset.Component, n)
	err = tr.do("measure.batch", root, op, func() error {
		return sess.MeasureStream(units, measure.Options{Cache: c, ElabStats: rec}, func(i int, res *measure.ComponentResult) error {
			comp := corpus.Components[i%n]
			row := dataset.Component{Project: comp.Project, Name: comp.Top, Effort: comp.Effort, Metrics: res.Metrics.MetricMap()}
			if i < n {
				with[i] = row
			} else {
				without[i-n] = row
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	for _, half := range []struct {
		rows []dataset.Component
		into map[string]float64
	}{{with, out.with}, {without, out.without}} {
		err := tr.do("nlme.fit", root, op, func() error {
			accs, err := core.EvaluateEstimatorsN(half.rows, 0)
			for _, a := range accs {
				half.into[a.Name] = a.SigmaEps
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	out.session = sess.Stats()
	return out, nil
}

// check compares a sweep with the cache-off reference: identical σε
// everywhere, the calibration shape (source metrics unaffected by the
// accounting procedure, every synthesis metric inflated without it),
// and a cold cache that served nothing.
func (o *corpusOutput) check(ref *paper.ScaleResult) checks {
	var c checks
	for name, v := range ref.With {
		c.expect(o.with[name] == v, "%s sigma_eps with accounting %v, reference %v", name, o.with[name], v)
	}
	for name, v := range ref.Without {
		c.expect(o.without[name] == v, "%s sigma_eps without accounting %v, reference %v", name, o.without[name], v)
	}
	for _, name := range paper.SoftwareEstimators {
		c.expect(o.with[name] == o.without[name], "%s inflation %v, want exactly 1", name, o.without[name]/o.with[name])
	}
	for _, name := range paper.SynthesisEstimators {
		c.expect(o.without[name] > o.with[name], "%s inflation %v, want > 1", name, o.without[name]/o.with[name])
	}
	c.expect(o.cache.Hits == 0, "cold sweep read %d cache entries", o.cache.Hits)
	return c
}

// coldSweep runs one sweep on a fresh cache directory. The directory
// is left for the run's final cleanup, so the file-system work of
// deleting a sweep's thousands of entries never lands inside the next
// timed sweep.
func coldSweep(r *run, tr *tracer, root, op int, corpus *gencorpus.Corpus, units []measure.Unit, rec *elab.StatsRecorder) (*corpusOutput, float64, error) {
	dir, err := r.scratchDir("cold-")
	if err != nil {
		return nil, 0, err
	}
	c, err := cache.Open(dir)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	id := tr.begin(opSpan, root, op)
	out, err := corpusOp(tr, id, op, corpus, units, c, rec)
	tr.end(id)
	ms := msSince(t0)
	if err != nil {
		return nil, ms, err
	}
	out.cache = c.Stats()
	out.disk, err = c.DiskStats()
	return out, ms, err
}

// runCorpusCold is the `corpus-cold` workload: a closed loop of cold
// sweeps over one seeded generated corpus, one caller.
func runCorpusCold(r *run) error {
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: r.size.corpusN, Seed: r.seed})
	if err != nil {
		return err
	}
	units := corpusUnits(corpus)
	ref, err := paper.CorpusScaleConfig(corpus.Config, paper.Opts{})
	if err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	r.logf("corpus: %d components, %d units, %d share groups", len(corpus.Components), len(units), ref.Groups)

	_, err = timedSetup(r, func() (struct{}, error) {
		out, _, err := coldSweep(r, nil, -1, -1, corpus, units, nil)
		if err == nil {
			r.record(out.check(ref)...)
		}
		return struct{}{}, err
	}, nil)
	if err != nil {
		return err
	}

	rec := &elab.StatsRecorder{}
	var first, last *corpusOutput
	ph := startPhase()
	for i := 0; i < r.size.ops; i++ {
		out, ms, err := coldSweep(r, r.opTracer(i), -1, i, corpus, units, rec)
		r.addLatency(i, ms)
		if err != nil {
			r.fail("sweep %d: %v", i, err)
			continue
		}
		r.record(out.check(ref)...)
		if first == nil {
			first = out
		}
		last = out
	}
	ph.end(r, r.size.ops)
	r.closedLoop()
	if first == nil {
		return nil
	}
	unitsPerOp := float64(len(units))
	r.logf("units_per_s %.1f (%d units per sweep)", unitsPerOp*r.layer["bench.ops_per_s"], len(units))
	r.logf("cache after one sweep: %d entries, %.2f MB", first.disk.Entries, float64(first.disk.Bytes)/(1<<20))
	if r.tr == nil {
		return nil
	}

	fileCacheStats(r, first.cache, first.disk, 1)
	st := last.session
	r.layer["hdl.parse_kb"] = float64(sourceBytes(corpus.Files)) / 1024
	r.layer["measure.units"] = float64(st.Components)
	r.layer["measure.synthesized"] = float64(st.Synthesized)
	r.layer["measure.shared"] = float64(st.Shared)
	r.layer["measure.share_ratio"] = ratio(float64(st.Shared), float64(st.Planned))
	r.layer["nlme.fits"] = float64(2 * (len(last.with) + len(last.without)))
	setElabRatios(r, rec)
	// No sweep's design outlives its sweep, so the replay parses its own.
	design, err := hdl.ParseDesignParallel(corpus.Files, 0)
	if err != nil {
		return err
	}
	_, err = replayAndFile(r, []replayJob{{design: design, units: units}}, true, 1)
	return err
}

// fileCacheStats files a cache's activity counters per operation and
// its on-disk state.
func fileCacheStats(r *run, s cache.Stats, ds cache.DiskStats, ops float64) {
	r.layer["cache.hits"] = float64(s.Hits) / ops
	r.layer["cache.misses"] = float64(s.Misses) / ops
	r.layer["cache.puts"] = float64(s.Puts) / ops
	r.layer["cache.hit_ratio"] = ratio(float64(s.Hits), float64(s.Hits+s.Misses))
	r.layer["cache.decode_errors"] = float64(s.DecodeErrors) / ops
	r.layer["cache.read_ms"] = float64(s.DecodeNanos) / 1e6 / ops
	r.layer["cache.entries"] = float64(ds.Entries)
	r.layer["cache.disk_mb"] = float64(ds.Bytes) / (1 << 20)
}

func sourceBytes(files map[string]string) int {
	n := 0
	for _, src := range files {
		n += len(src)
	}
	return n
}
