// Package gencorpus is a seeded, fully deterministic µHDL design
// generator: it emits synthetic measurement corpora of arbitrary size
// so the pipeline can be exercised — and the paper's accounting
// experiment re-run — far off the fixed 18-component corpus of
// internal/designs.
//
// Determinism contract: Generate is a pure function of its Config.
// The same config yields byte-identical sources (and therefore
// identical design fingerprints) on every run, at every GOMAXPROCS,
// on every platform — generation is single-threaded integer
// arithmetic over a splitmix64 stream, with no map iteration, no
// floating point, and no global state. Distinct seeds yield distinct
// corpora.
//
// The generated designs are deliberately shaped like the hand-written
// corpus: parameterized pipelines, FIFO banks, register-file
// clusters, decoder trees, and crossbars, instantiating a shared
// building-block library (gen_lib.v) plus a per-group lane module so
// that components share submodule subtrees — the dedup rule, the
// template-stamped lowering, and the subtree caching layers all get
// exercised at scale. Components are dealt round-robin into share
// groups, and components within one group draw their parameter
// bindings from one small per-group pool, so design points repeat
// across the corpus.
package gencorpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/hdl"
)

// Config parameterizes one generated corpus.
type Config struct {
	// Components is the number of top-level components to generate
	// (each one measurement unit per accounting mode).
	Components int
	// Seed selects the corpus. Two configs differing only in Seed
	// produce structurally distinct corpora.
	Seed uint64
}

// groups is the number of share groups the components are dealt into
// round-robin: about √Components, at least 3 so the mixed-effects fits
// have enough projects, at most 24, and never more than Components.
// Each group draws its module parameterizations from one small seeded
// pool and shares one group-local lane module.
func (c Config) groups() int {
	g := 0
	for g*g < c.Components {
		g++
	}
	if g < 3 {
		g = 3
	}
	if g > 24 {
		g = 24
	}
	if g > c.Components {
		g = c.Components
	}
	return g
}

// Component is one generated top-level design unit.
type Component struct {
	// Top is the component's top module name.
	Top string
	// Project labels the component's share group ("Gen03", ...); the
	// scale experiment's mixed-effects fits group by it.
	Project string
	// File names the source file declaring the component.
	File string
	// Effort is the component's synthetic design effort in
	// person-months: a deterministic, seeded log-normal-ish draw
	// around the component's structural size, so estimator fits over
	// a generated corpus have a ground truth to calibrate against.
	Effort float64
}

// Corpus is one generated corpus: sources plus the component table.
type Corpus struct {
	Config     Config
	Files      map[string]string // file name → µHDL source text
	Components []Component       // in generation order
}

// Generate emits the corpus for cfg. It is a pure function: identical
// configs yield byte-identical corpora.
func Generate(cfg Config) (*Corpus, error) {
	if cfg.Components < 1 {
		return nil, fmt.Errorf("gencorpus: Components must be >= 1 (got %d)", cfg.Components)
	}
	g := &generator{cfg: cfg, rng: newRng(cfg.Seed)}
	return g.corpus(), nil
}

// FileNames returns the corpus's file names, sorted (the parse order).
func (c *Corpus) FileNames() []string {
	names := make([]string, 0, len(c.Files))
	for n := range c.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fingerprint is a stable content hash over the corpus sources (file
// names and bytes, in sorted name order). Two corpora fingerprint
// equal exactly when they are byte-identical file for file.
func (c *Corpus) Fingerprint() string {
	h := sha256.New()
	for _, name := range c.FileNames() {
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(c.Files[name]))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Design parses the corpus into one hdl.Design. Files are parsed on a
// bounded pool (0 = GOMAXPROCS, 1 = sequential); the design is
// bit-identical for every worker count.
func (c *Corpus) Design(concurrency int) (*hdl.Design, error) {
	return hdl.ParseDesignParallel(c.Files, concurrency)
}

// WriteFiles writes the corpus sources into dir (created if needed),
// one .v file each, and returns the file paths in sorted order. It is
// the ucmetrics -generate escape hatch: emitted corpora can be
// measured, watched, and diffed like any user design.
func (c *Corpus) WriteFiles(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	names := c.FileNames()
	paths := make([]string, 0, len(names))
	for _, name := range names {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(c.Files[name]), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// rng is a splitmix64 stream: tiny, fast, and — unlike math/rand —
// guaranteed stable here forever, because determinism across Go
// releases is part of the generator's contract.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng {
	// Mix the seed once so seed 0 and seed 1 diverge immediately.
	r := &rng{state: seed ^ 0x9e3779b97f4a7c15}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// pick returns one element of pool.
func (r *rng) pick(pool []int) int {
	return pool[r.intn(len(pool))]
}

// sub derives an independent stream for a labelled sub-scope, so the
// bytes of one component do not depend on how many random draws an
// earlier component consumed.
func (r *rng) sub(label string, i int) *rng {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%d", r.state, label, i)))
	var s uint64
	for b := 0; b < 8; b++ {
		s = s<<8 | uint64(h[b])
	}
	return newRng(s)
}

// generator carries the in-progress corpus.
type generator struct {
	cfg Config
	rng *rng
}

// pools are one share group's parameter pools: every component in the
// group draws its widths, depths, and address widths from these few
// values, so group-mates repeatedly land on the same (module,
// parameters) design points.
type pools struct {
	widths []int
	depths []int
	aws    []int
	repls  []int
	laneW  int
}

func newPools(r *rng) pools {
	widthUniverse := []int{4, 6, 8, 12, 16, 20, 24, 32}
	depthUniverse := []int{2, 3, 4, 5, 6, 8}
	awUniverse := []int{2, 3, 4, 5}
	p := pools{
		depths: depthUniverse,
		repls:  []int{2, 3, 4},
	}
	// Two or three widths per group: enough variety to exercise
	// distinct signatures, few enough that collisions are common.
	nw := 2 + r.intn(2)
	for i := 0; i < nw; i++ {
		p.widths = append(p.widths, widthUniverse[r.intn(len(widthUniverse))])
	}
	p.aws = []int{awUniverse[r.intn(len(awUniverse))], awUniverse[r.intn(len(awUniverse))]}
	p.laneW = p.widths[0]
	return p
}

func (g *generator) corpus() *Corpus {
	cfg := g.cfg
	ng := cfg.groups()
	c := &Corpus{Config: cfg, Files: map[string]string{"gen_lib.v": libSrc}}

	groupPools := make([]pools, ng)
	for gi := 0; gi < ng; gi++ {
		gr := g.rng.sub("group", gi)
		groupPools[gi] = newPools(gr)
		c.Files[fmt.Sprintf("gen_grp%03d.v", gi)] = emitGroupLane(gi, groupPools[gi].laneW)
	}

	for i := 0; i < cfg.Components; i++ {
		gi := i % ng
		cr := g.rng.sub("component", i)
		fam := families[i%len(families)]
		name := fmt.Sprintf("gen_c%04d_%s", i, fam.key)
		src, score := fam.emit(name, gi, groupPools[gi], cr)
		file := fmt.Sprintf("gen_c%04d.v", i)
		c.Files[file] = src
		c.Components = append(c.Components, Component{
			Top:     name,
			Project: fmt.Sprintf("Gen%02d", gi),
			File:    file,
			Effort:  syntheticEffort(score, cr),
		})
	}
	return c
}

// effortMultipliers is the log-normal-ish noise table for synthetic
// efforts, in thousandths (spanning ~0.4x..3x around the size score).
var effortMultipliers = []int{400, 550, 700, 850, 1000, 1150, 1300, 1500, 1750, 2000, 2400, 3000}

// syntheticEffort turns a structural size score into person-months:
// score scaled by a seeded multiplicative noise draw, in pure integer
// arithmetic so the value is identical on every platform.
func syntheticEffort(score int, r *rng) float64 {
	mult := effortMultipliers[r.intn(len(effortMultipliers))]
	centi := score * mult / 100 // person-month hundredths
	if centi < 10 {
		centi = 10 // floor at 0.1 person-months, like the paper's smallest rows
	}
	return float64(centi) / 100
}
