// Command ucpaper regenerates the tables and figures of the
// µComplexity paper (MICRO 2005) from this reproduction's own
// machinery.
//
// Usage:
//
//	ucpaper -table 1|2|3|4        print one table
//	ucpaper -figure 2|3|4|5|6     print one figure
//	ucpaper -aicbic               print the Section 5.1.1 comparison
//	ucpaper -all                  print everything (default)
//	ucpaper -corpus-scale N       generate a seeded N-component corpus
//	                              and re-run the Figure 6 accounting
//	                              sweep on it (per-component timing and
//	                              session sharing included)
//	ucpaper -corpus-seed S        generator seed for -corpus-scale
//	                              (default 1)
//	ucpaper -parallel N           bound the worker pools (0 = all
//	                              cores, 1 = sequential; results are
//	                              identical for every value)
//	ucpaper -cache-dir DIR        cache synthesis measurements on disk
//	                              (default $UCOMPLEXITY_CACHE; results
//	                              are identical with and without it)
//	ucpaper -cache-verify         recompute every cache hit and fail
//	                              on any mismatch
//	ucpaper -cache-stats          report the cache's on-disk footprint
//	                              (entries, bytes, compression ratio)
//	                              and warm-path decode cost on stderr
//	ucpaper -elab-stats           report the session elaboration
//	                              cache's subtree hit/miss/reuse
//	                              counters on stderr
//	ucpaper -session-stats        report the measurement session's
//	                              signature sharing (planned /
//	                              synthesized / shared) on stderr
//	ucpaper -cpuprofile FILE      write a CPU profile of the run
//	ucpaper -memprofile FILE      write a heap profile of the run
//
// The corpus experiments (Figure 6 and the timing extension) run
// through one shared measurement session: the corpus is parsed once
// and each distinct (module, parameters) signature is synthesized
// exactly once across everything the invocation prints. With a warm
// cache they skip elaboration and synthesis entirely.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cache"
	"repro/internal/elab"
	"repro/internal/gencorpus"
	"repro/internal/paper"
)

func main() {
	tableN := flag.Int("table", 0, "print table N (1-4)")
	figureN := flag.Int("figure", 0, "print figure N (2-6)")
	aicbic := flag.Bool("aicbic", false, "print the AIC/BIC model comparison")
	extension := flag.Bool("extension", false, "print the timing-aware estimator extension experiment")
	all := flag.Bool("all", false, "print every table and figure")
	corpusScale := flag.Int("corpus-scale", 0, "run the accounting sweep on a generated corpus of N components")
	corpusSeed := flag.Uint64("corpus-seed", 1, "generator seed for -corpus-scale")
	par := flag.Int("parallel", 0, "worker pool bound: 0 = GOMAXPROCS, 1 = sequential (results are identical)")
	cacheDir := flag.String("cache-dir", cache.DefaultDir(), "measurement cache directory (default $"+cache.EnvVar+"; empty = no cache)")
	cacheVerify := flag.Bool("cache-verify", false, "recompute every cache hit and compare (consistency check)")
	cacheStats := flag.Bool("cache-stats", false, "report cache disk footprint and decode cost on stderr")
	elabStats := flag.Bool("elab-stats", false, "report session elaboration-cache counters on stderr")
	sessionStats := flag.Bool("session-stats", false, "report measurement-session signature sharing on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write CPU profile to file")
	memProfile := flag.String("memprofile", "", "write heap profile to file")
	flag.Parse()

	if !*aicbic && !*extension && *tableN == 0 && *figureN == 0 && *corpusScale == 0 {
		*all = true
	}
	if err := realMain(*tableN, *figureN, *aicbic, *extension, *all, *corpusScale, *corpusSeed, *par, *cacheDir, *cacheVerify, *cacheStats, *elabStats, *sessionStats, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "ucpaper:", err)
		os.Exit(1)
	}
}

func realMain(tableN, figureN int, aicbic, extension, all bool, corpusScale int, corpusSeed uint64, par int, cacheDir string, cacheVerify, cacheStats, elabStats, sessionStats bool, cpuProfile, memProfile string) error {
	opts := paper.Opts{Concurrency: par}
	// The corpus-measuring experiments share one session so a run that
	// prints several of them parses the corpus once and synthesizes
	// each distinct signature once across all of them. (-corpus-scale
	// builds its own session over the generated design.)
	if all || figureN == 6 || extension || (sessionStats && corpusScale == 0) {
		sess, err := paper.NewSession()
		if err != nil {
			return err
		}
		opts.Session = sess
		if sessionStats {
			defer func() {
				s := sess.Stats()
				e := sess.ElabStats()
				fmt.Fprintf(os.Stderr, "session: %d components measured, %d signatures planned, %d synthesized, %d shared; elab cache %d hits, %d misses\n",
					s.Components, s.Planned, s.Synthesized, s.Shared, e.Hits, e.Misses)
			}()
		}
	}
	if cacheDir != "" {
		c, err := cache.Open(cacheDir)
		if err != nil {
			return err
		}
		c.SetVerify(cacheVerify)
		opts.Cache = c
		defer func() {
			s := c.Stats()
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d verified (%s)\n", s.Hits, s.Misses, s.VerifyChecks, cacheDir)
			if cacheStats {
				if err := c.WriteReport(os.Stderr); err != nil {
					fmt.Fprintln(os.Stderr, "ucpaper: cache-stats:", err)
				}
			}
		}()
	} else if cacheVerify {
		return fmt.Errorf("-cache-verify needs a cache (-cache-dir or $%s)", cache.EnvVar)
	} else if cacheStats {
		return fmt.Errorf("-cache-stats needs a cache (-cache-dir or $%s)", cache.EnvVar)
	}
	if elabStats {
		rec := &elab.StatsRecorder{}
		opts.ElabStats = rec
		defer func() {
			s, probeHits, probeMisses := rec.Snapshot()
			fmt.Fprintf(os.Stderr, "elab: %d subtree hits, %d misses, %d instances reused; %d probe hits, %d probe misses\n",
				s.Hits, s.Misses, s.InstancesReused, probeHits, probeMisses)
		}()
	}

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ucpaper:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ucpaper:", err)
			}
		}()
	}

	if corpusScale > 0 {
		res, err := paper.CorpusScaleConfig(gencorpus.Config{Components: corpusScale, Seed: corpusSeed}, opts)
		if err != nil {
			return err
		}
		fmt.Println(res)
		if sessionStats {
			s := res.Session
			fmt.Fprintf(os.Stderr, "session: %d components measured, %d signatures planned, %d synthesized, %d shared\n",
				s.Components, s.Planned, s.Synthesized, s.Shared)
		}
		if !all && tableN == 0 && figureN == 0 && !aicbic && !extension {
			return nil
		}
	}
	return run(tableN, figureN, aicbic, extension, all, opts)
}

func run(tableN, figureN int, aicbic, extension, all bool, opts paper.Opts) error {
	par := opts.Concurrency
	table := func(n int) error {
		switch n {
		case 1:
			fmt.Println(paper.Table1())
		case 2:
			fmt.Println(paper.Table2())
		case 3:
			fmt.Println(paper.Table3())
		case 4:
			t4, err := paper.Table4N(par)
			if err != nil {
				return err
			}
			fmt.Println(t4)
		default:
			return fmt.Errorf("no table %d (have 1-4)", n)
		}
		return nil
	}
	figure := func(n int) error {
		switch n {
		case 2:
			fmt.Println(paper.Figure2())
		case 3:
			fmt.Println(paper.Figure3())
		case 4:
			f4, err := paper.Figure4N(par)
			if err != nil {
				return err
			}
			fmt.Println(f4.Plot)
		case 5:
			f5, err := paper.Figure5N(par)
			if err != nil {
				return err
			}
			fmt.Println(f5.Plot)
		case 6:
			f6, err := paper.Figure6Opts(opts)
			if err != nil {
				return err
			}
			fmt.Println(f6)
		default:
			return fmt.Errorf("no figure %d (have 2-6)", n)
		}
		return nil
	}

	if all {
		for n := 1; n <= 4; n++ {
			if err := table(n); err != nil {
				return err
			}
		}
		res, err := paper.AICBICN(par)
		if err != nil {
			return err
		}
		fmt.Println(res)
		for n := 2; n <= 6; n++ {
			if err := figure(n); err != nil {
				return err
			}
		}
		ext, err := paper.TimingAwareOpts(opts)
		if err != nil {
			return err
		}
		fmt.Println(ext)
		return nil
	}
	if tableN != 0 {
		if err := table(tableN); err != nil {
			return err
		}
	}
	if figureN != 0 {
		if err := figure(figureN); err != nil {
			return err
		}
	}
	if aicbic {
		res, err := paper.AICBICN(par)
		if err != nil {
			return err
		}
		fmt.Println(res)
	}
	if extension {
		ext, err := paper.TimingAwareOpts(opts)
		if err != nil {
			return err
		}
		fmt.Println(ext)
	}
	return nil
}
