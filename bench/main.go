// Command bench is the repository's end-to-end benchmark. It drives
// four user-facing workloads through the program's public functions,
// checks every output, and prints each metric by name and unit, with
// one JSON object as the last line of standard output.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload paper|corpus-cold|edit-loop|served \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// operations with spans recorded around every call into a layer (on
// every other operation, so the run also measures the tracer's
// overhead), replays one operation's units through the stage entry
// points, and reports the per-layer metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, identical for every
// workload (see README for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"peak_mem_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Every workload reports
// all of them; a layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"bench.tail_ms", "ms"},
	{"bench.ops_per_s", "1/s"},
	{"paper.tables1_3_ms", "ms"},
	{"paper.table4_ms", "ms"},
	{"paper.aicbic_ms", "ms"},
	{"paper.figures2_5_ms", "ms"},
	{"paper.figure6_ms", "ms"},
	{"paper.extension_ms", "ms"},
	{"hdl.parse_ms", "ms"},
	{"hdl.parse_kb", "KB"},
	{"measure.batch_ms", "ms"},
	{"measure.units", "count"},
	{"measure.synthesized", "count"},
	{"measure.shared", "count"},
	{"measure.share_ratio", "ratio"},
	{"measure.dirty_units", "count"},
	{"measure.clean_units", "count"},
	{"measure.neutral_dirty_share", "ratio"},
	{"measure.save_local_neutral_p50_ms", "ms"},
	{"measure.save_lib_neutral_p50_ms", "ms"},
	{"measure.save_local_change_p50_ms", "ms"},
	{"measure.save_noop_p50_ms", "ms"},
	{"measure.minimize_ms", "ms"},
	{"measure.replay_ratio", "ratio"},
	{"elab.elaborate_ms", "ms"},
	{"elab.subtree_hit_ratio", "ratio"},
	{"elab.probe_hit_ratio", "ratio"},
	{"synth.lower_ms", "ms"},
	{"synth.raw_cells", "count"},
	{"netlist.optimize_ms", "ms"},
	{"netlist.cells", "count"},
	{"netlist.cse_ratio", "ratio"},
	{"cones.analyze_ms", "ms"},
	{"fpga.map_ms", "ms"},
	{"power.analyze_ms", "ms"},
	{"codec.encode_ms", "ms"},
	{"codec.entry_kb", "KB"},
	{"codec.compress_ratio", "ratio"},
	{"cache.put_ms", "ms"},
	{"cache.read_ms", "ms"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.puts", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.decode_errors", "count"},
	{"cache.entries", "count"},
	{"cache.disk_mb", "MB"},
	{"depgraph.diff_ms", "ms"},
	{"depgraph.dirty_modules", "count"},
	{"nlme.fit_ms", "ms"},
	{"nlme.fits", "count"},
	{"serve.measure_ms", "ms"},
	{"serve.remeasure_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.inflight_max", "count"},
	{"serve.sessions", "count"},
	{"serve.lo_p50_ms", "ms"},
	{"serve.lo_p95_ms", "ms"},
	{"serve.hi_p50_ms", "ms"},
	{"serve.hi_p95_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"loadgen.max_rps", "1/s"},
	{"loadgen.late_p95_ms", "ms"},
	{"loadgen.conn_wait_ms", "ms"},
	{"loadgen.achieved_rps", "1/s"},
	{"trace.overhead", "ratio"},
	{"trace.unattributed_share", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"paper":       runPaper,
	"corpus-cold": runCorpusCold,
	"edit-loop":   runEditLoop,
	"served":      runServed,
}

func main() {
	workload := flag.String("workload", "", "workload: paper, corpus-cold, edit-loop, or served")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "nominal length of the timed phase; sets the fixed operation count")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "bench: want --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	out, err := execute(*workload, *seed, sizeFor(*workload, *seconds), *traceFlag == 1, ".bench_build", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !out.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload with its scratch files in a private
// directory under dir, where a traced run also leaves its spans; it
// prints the human-readable report and the JSON outcome to w and
// returns the outcome.
func execute(name string, seed uint64, sz size, traced bool, dir string, w io.Writer) (*outcome, error) {
	root := filepath.Join(dir, "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	spreadSubdirs(work)

	fmt.Fprintf(w, "# bench workload=%s seed=%d trace=%t gomaxprocs=%d nproc=%d go=%s\n",
		name, seed, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	r := &run{seed: seed, size: sz, work: work, log: w, e2e: map[string]float64{}, layer: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	if err := workloads[name](r); err != nil {
		r.fail("%s: %v", name, err)
	}
	if traced {
		r.finishTrace()
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := r.tr.writeFile(path); err != nil {
			r.fail("write trace: %v", err)
		} else {
			fmt.Fprintf(w, "# spans written to %s\n", path)
		}
	}

	metrics := map[string]metric{}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			r.fail("metric %s was not measured", d.name)
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, msg := range r.errs {
		fmt.Fprintln(w, "# FAIL", msg)
	}
	out := &outcome{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: metrics}
	line, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, string(line))
	return out, nil
}
