package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// size fixes how much work one run does. Run length is an operation
// count, never a duration, so two commits measured with the same size
// do the same work (the disk cache, for one, grows with every novel
// edit). main derives it from --seconds; the tests pass a reduced one.
type size struct {
	ops     int // timed closed-loop operations
	setups  int // set-up repetitions; setup_s is their median
	corpusN int // corpus-cold: generated components
	// served: requests in the untimed warm-up, the traced run's 50 and
	// 150 req/s steps and two-caller saturation step; the most steps its
	// max_rps search takes, and the minimum length in seconds of each.
	// The timed one-caller loop is ops requests.
	warmN, lightN, heavyN, saturateN int
	searchSteps                      int
	searchSec                        float64
	checkEvery                       int // edit-loop and served: full reference check period
}

// Nominal operation rates on a 2-core x86-64 host, used only to turn
// --seconds into a fixed operation count.
const (
	paperOpsPerSec  = 10
	corpusOpsPerSec = 0.4
	editOpsPerSec   = 120
	servedOpsPerSec = 150 // one caller's closed loop
)

func sizeFor(workload string, seconds int) size {
	// A set-up takes tens of milliseconds, so many repetitions steady
	// their median cheaply.
	s := size{setups: 11, corpusN: 1000, checkEvery: 300}
	sec := float64(seconds)
	switch workload {
	case "paper":
		s.ops = int(paperOpsPerSec * sec)
	case "corpus-cold":
		s.ops = int(corpusOpsPerSec * sec)
		s.setups = 5 // each is a full cold sweep
	case "edit-loop":
		s.ops = int(editOpsPerSec * sec)
	case "served":
		s.ops = int(servedOpsPerSec * sec)
		s.warmN = 200
		s.lightN = int(lightRate * 0.5 * sec)
		s.heavyN = int(heavyRate * 0.2 * sec)
		s.saturateN = int(40 * sec)
		s.searchSteps = 8
		s.searchSec = 0.08 * sec
		s.checkEvery = 100
	}
	s.ops = max(s.ops, 3)
	return s
}

// run is the state of one workload run: its inputs, the operation
// tally, and the metrics it has measured so far.
type run struct {
	seed uint64
	size size
	work string    // private scratch directory (cache directories)
	log  io.Writer // human-readable report lines
	tr   *tracer   // nil for an untraced run

	attempted, failed int
	errs              []string

	setup     []float64 // seconds per set-up repetition
	all       []float64 // ms per operation, in order
	lat       []float64 // ms per untraced operation
	latTraced []float64 // ms per traced operation

	e2e, layer map[string]float64
}

// maxErrs bounds the failure messages kept for the report.
const maxErrs = 20

// record counts one attempted operation; any problem marks it failed.
func (r *run) record(problems ...string) {
	r.attempted++
	if len(problems) == 0 {
		return
	}
	r.failed++
	for _, p := range problems {
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, p)
		}
	}
}

// fail records a failed operation with one message.
func (r *run) fail(format string, args ...any) {
	r.record(fmt.Sprintf(format, args...))
}

// checks collects the problems an operation's output checks find.
type checks []string

func (c *checks) expect(ok bool, format string, args ...any) {
	if !ok {
		*c = append(*c, fmt.Sprintf(format, args...))
	}
}

// opTracer returns the tracer for operation i: in a traced run every
// even operation is traced and every odd one is not, so the run also
// measures the tracer's overhead; nil otherwise.
func (r *run) opTracer(i int) *tracer {
	if r.tr != nil && i%2 == 0 {
		return r.tr
	}
	return nil
}

// addLatency files operation i's latency with its traced or untraced
// half.
func (r *run) addLatency(i int, ms float64) {
	r.all = append(r.all, ms)
	if r.opTracer(i) != nil {
		r.latTraced = append(r.latTraced, ms)
	} else {
		r.lat = append(r.lat, ms)
	}
}

// scratchDir returns a fresh directory under the run's work directory.
func (r *run) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(r.work, prefix)
}

// logf writes one human-readable report line.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", args...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// timedSetup runs set-up size.setups times, records each repetition's
// wall time, and returns the last repetition's state; discard releases
// the earlier ones.
func timedSetup[T any](r *run, setup func() (T, error), discard func(T)) (T, error) {
	var st T
	for i := 0; i < r.size.setups; i++ {
		if i > 0 && discard != nil {
			discard(st)
		}
		t0 := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, err
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(r.setup)
	r.logf("setup: %d repetitions, median %.4f s, each %.4f", len(r.setup), r.e2e["setup_s"], r.setup)
	return st, nil
}

// phase measures the runtime side of the timed phase: the high-water
// mark of the memory the Go runtime holds, allocation, and collection.
type phase struct {
	before   runtime.MemStats
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	peakMem  uint64
}

func startPhase() *phase {
	p := &phase{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&p.before)
	go p.sample()
	return p
}

// sample polls the memory the runtime holds until stopped, taking one
// last reading on the way out. That is everything it mapped less what
// the scavenger returned to the operating system: close to the
// process's resident Go memory, and unlike the mapped total alone it
// does not move in whole heap-arena steps.
func (p *phase) sample() {
	defer close(p.done)
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	read := func() {
		metrics.Read(s)
		p.peakMem = max(p.peakMem, s[0].Value.Uint64()-s[1].Value.Uint64())
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		read()
		select {
		case <-p.stop:
			read()
			return
		case <-tick.C:
		}
	}
}

// stopSampling stops the sampler and waits for it to exit. It is safe
// to call more than once, so a workload can defer it for its error
// returns and still call end.
func (p *phase) stopSampling() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// end stops the sampler and files the phase's metrics, normalized over
// ops operations.
func (p *phase) end(r *run, ops int) {
	p.stopSampling()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(max(ops, 1))
	r.e2e["peak_mem_mb"] = float64(p.peakMem) / (1 << 20)
	r.layer["go.alloc_mb_per_op"] = float64(after.TotalAlloc-p.before.TotalAlloc) / (1 << 20) / n
	r.layer["go.gc_cycles_per_op"] = float64(after.NumGC-p.before.NumGC) / n
	r.layer["go.gc_pause_ms_per_op"] = float64(after.PauseTotalNs-p.before.PauseTotalNs) / 1e6 / n
}

// closedLoop files the latency metrics of a closed-loop workload: the
// median latency, the throughput, and the highest tail the untraced
// sample count supports.
func (r *run) closedLoop() {
	r.e2e["p50_ms"] = median(r.lat)
	r.layer["bench.ops_per_s"] = chunkedRate(r.all)
	r.tail(r.lat)
}

// mixP50 files p50_ms for a workload that mixes operation kinds: the
// kinds' median untraced latencies weighted by their shares (see
// mixMedian). It logs the pooled median beside it.
func (r *run) mixP50(byKind [][]float64) {
	r.e2e["p50_ms"] = mixMedian(byKind)
	r.logf("p50_ms %.3f ms: kind medians weighted by share (pooled median %.3f ms)", r.e2e["p50_ms"], median(r.lat))
}

// rateChunks is how many consecutive slices a run's throughput is
// measured over; their median is reported, so a slow spell of the host
// during part of a run moves it less than a mean would.
const rateChunks = 10

// chunkedRate splits the operation latencies (ms, in order) into up to
// rateChunks consecutive slices and returns the median of the slices'
// operations per second of busy time.
func chunkedRate(lat []float64) float64 {
	k := min(rateChunks, len(lat))
	rates := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		var busy float64
		part := lat[c*len(lat)/k : (c+1)*len(lat)/k]
		for _, ms := range part {
			busy += ms
		}
		rates = append(rates, ratio(float64(len(part)), busy/1e3))
	}
	return median(rates)
}

// tail files the highest percentile of the given latencies that their
// count supports, and logs it with the median and the sample count.
func (r *run) tail(lat []float64) {
	if p, ok := highestTail(len(lat)); ok {
		v, _ := percentile(lat, p)
		r.layer["bench.tail_ms"] = v
		r.logf("latency: p50 %.3f ms, p%g %.3f ms over %d samples", median(lat), p, v, len(lat))
	} else {
		r.logf("latency: p50 %.3f ms over %d samples (too few for a tail)", median(lat), len(lat))
	}
}

// finishTrace files the span-derived per-layer metrics common to every
// workload: per-operation time of each layer span, the tracer's
// overhead, and the share of operation time no span covers.
func (r *run) finishTrace() {
	sum := summarize(r.tr.snapshot())
	for _, d := range perLayer {
		base, ok := strings.CutSuffix(d.name, "_ms")
		if _, set := r.layer[d.name]; ok && !set && sum.count[base] > 0 {
			r.layer[d.name] = sum.perOp(base)
		}
	}
	r.layer["trace.unattributed_share"] = sum.unattributed
	r.layer["trace.overhead"] = ratio(median(r.latTraced), median(r.lat))
	r.logf("trace: %d traced operations, overhead %.3f, unattributed %.3f",
		sum.ops, r.layer["trace.overhead"], sum.unattributed)
}
