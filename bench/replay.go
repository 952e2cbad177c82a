package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/cones"
	"repro/internal/depgraph"
	"repro/internal/elab"
	"repro/internal/fpga"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

// A measure.Session is opaque from outside, so a traced run splits its
// batch time by replaying one operation's units through the public
// stage entry points, in pipeline order, one unit at a time and with
// nothing shared between units.

// replayJob is one measured batch: the design it ran on and its units.
// With prev set, the job is an incremental save: the design is diffed
// against prev, and only the units the diff marks dirty are replayed.
type replayJob struct {
	design *hdl.Design
	units  []measure.Unit
	prev   *depgraph.Graph
}

// dirty returns the units the job actually measures.
func (j replayJob) dirty() ([]measure.Unit, error) {
	if j.prev == nil {
		return j.units, nil
	}
	if j.prev.Fingerprint == j.design.Fingerprint() {
		return nil, nil // identical save: nothing to diff or measure
	}
	d, err := depgraph.Diff(j.prev, j.design)
	if err != nil {
		return nil, err
	}
	var out []measure.Unit
	for _, u := range j.units {
		if d.Dirty(u.Top) {
			out = append(out, u)
		}
	}
	return out, nil
}

// stageTimes accumulates a replay.
type stageTimes struct {
	diff, minimize, elaborate, lower, optimize time.Duration
	cones, fpga, power, encode, put            time.Duration
	units, rawCells, cells, merged             int
	entries, entryStored, entryRaw             int
}

func (s *stageTimes) total() time.Duration {
	return s.diff + s.minimize + s.elaborate + s.lower + s.optimize + s.cones + s.fpga + s.power + s.encode + s.put
}

// timeIt adds fn's wall time to *acc.
func timeIt(acc *time.Duration, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*acc += time.Since(t0)
	return err
}

// replayStages runs every job's units through the stages. A non-nil
// cache also replays the codec encode and the cache write each unit's
// netlist costs; workloads that run without a disk cache pass nil.
func replayStages(jobs []replayJob, c *cache.Cache) (*stageTimes, error) {
	st := &stageTimes{}
	ws := synth.NewWorkspace()
	var cws cones.Workspace
	var fws fpga.Workspace
	var pws power.Workspace
	lib := stdcell.Default180nm()
	for _, j := range jobs {
		var units []measure.Unit
		err := timeIt(&st.diff, func() (err error) {
			units, err = j.dirty()
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			if err := replayUnit(st, j.design, u, c, ws, &cws, &fws, &pws, lib); err != nil {
				return nil, fmt.Errorf("replay %s: %w", u.Top, err)
			}
		}
	}
	return st, nil
}

func replayUnit(st *stageTimes, d *hdl.Design, u measure.Unit, c *cache.Cache, ws *synth.Workspace,
	cws *cones.Workspace, fws *fpga.Workspace, pws *power.Workspace, lib *stdcell.Library) error {
	st.units++
	var params map[string]int64
	if u.UseAccounting {
		if err := timeIt(&st.minimize, func() (err error) {
			params, err = measure.MinimizeParamsN(d, u.Top, 1)
			return err
		}); err != nil {
			return err
		}
	}
	var inst *elab.Instance
	if err := timeIt(&st.elaborate, func() (err error) {
		inst, _, err = elab.ElaborateOpts(d, u.Top, params, elab.Options{})
		return err
	}); err != nil {
		return err
	}
	var raw *netlist.Netlist
	if err := timeIt(&st.lower, func() (err error) {
		raw, _, err = synth.LowerOpts(inst, synth.LowerOptions{DedupInstances: u.UseAccounting, Workspace: ws})
		return err
	}); err != nil {
		return err
	}
	st.rawCells += len(raw.Cells)
	var opt *netlist.Netlist
	if err := timeIt(&st.optimize, func() error {
		o, res, err := netlist.OptimizeWS(raw, &ws.NL)
		opt = o
		st.merged += res.Merged
		return err
	}); err != nil {
		return err
	}
	st.cells += len(opt.Cells)
	var freq float64
	timeIt(&st.cones, func() error { cones.AnalyzeSummary(opt, cws); return nil })
	timeIt(&st.fpga, func() error { freq = fpga.MapWS(opt, fpga.Options{}, fws).FreqMHz; return nil })
	timeIt(&st.power, func() error { power.AnalyzeWS(opt, lib, freq, pws); return nil })
	if c == nil {
		return nil
	}
	// Persisted netlists are slimmed first, as the session does.
	opt.TrimDerived()
	opt.TrimNames()
	key := cache.KindKey("replay", strconv.Itoa(st.units))
	var enc time.Duration
	timeIt(&enc, func() error {
		payload := codec.AppendNetlist(nil, opt)
		entry := codec.EncodeEntry(nil, cache.SchemaVersion, key, payload, cache.CompressThreshold)
		st.entries++
		st.entryRaw += len(payload)
		st.entryStored += len(entry)
		return nil
	})
	st.encode += enc
	var put time.Duration
	if err := timeIt(&put, func() error { return cache.Put(c, key, codec.NetlistCodec, opt) }); err != nil {
		return err
	}
	// Put encodes again internally; its write cost is what remains.
	st.put += max(put-enc, 0)
	return nil
}

// replayAndFile replays jobs, which together stand for perOps timed
// operations, and files the stage metrics per operation. It first
// measures the same units as real batches on fresh sessions (one
// worker, and a fresh cache when withCache), so measure.replay_ratio
// compares like with like: what the session's sharing saves. It
// returns that real batch time per operation in milliseconds.
func replayAndFile(r *run, jobs []replayJob, withCache bool, perOps float64) (float64, error) {
	var realC, replayC *cache.Cache
	if withCache {
		for _, c := range []**cache.Cache{&realC, &replayC} {
			dir, err := r.scratchDir("replay-")
			if err != nil {
				return 0, err
			}
			if *c, err = cache.Open(dir); err != nil {
				return 0, err
			}
		}
	}
	var batch time.Duration
	for _, j := range jobs {
		units, err := j.dirty()
		if err != nil {
			return 0, err
		}
		if len(units) == 0 {
			continue
		}
		sess := measure.NewSession(j.design)
		if err := timeIt(&batch, func() error {
			_, err := sess.MeasureAll(units, measure.Options{Concurrency: 1, Cache: realC})
			return err
		}); err != nil {
			return 0, err
		}
	}
	st, err := replayStages(jobs, replayC)
	if err != nil {
		return 0, err
	}

	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / perOps }
	r.layer["measure.minimize_ms"] = per(st.minimize)
	r.layer["measure.replay_ratio"] = ratio(float64(st.total()), float64(batch))
	r.layer["elab.elaborate_ms"] = per(st.elaborate)
	r.layer["synth.lower_ms"] = per(st.lower)
	r.layer["synth.raw_cells"] = float64(st.rawCells) / perOps
	r.layer["netlist.optimize_ms"] = per(st.optimize)
	r.layer["netlist.cells"] = float64(st.cells) / perOps
	r.layer["netlist.cse_ratio"] = ratio(float64(st.merged), float64(st.rawCells))
	r.layer["cones.analyze_ms"] = per(st.cones)
	r.layer["fpga.map_ms"] = per(st.fpga)
	r.layer["power.analyze_ms"] = per(st.power)
	r.layer["codec.encode_ms"] = per(st.encode)
	r.layer["codec.entry_kb"] = ratio(float64(st.entryStored), float64(st.entries)) / 1024
	r.layer["codec.compress_ratio"] = ratio(float64(st.entryRaw), float64(st.entryStored))
	r.layer["cache.put_ms"] = per(st.put)
	if jobs[0].prev != nil {
		r.layer["depgraph.diff_ms"] = per(st.diff)
	}
	r.logf("replay: %d units for %g operations, stages %.1f ms vs real sequential batch %.1f ms",
		st.units, perOps, float64(st.total().Nanoseconds())/1e6, float64(batch.Nanoseconds())/1e6)
	return per(batch), nil
}
