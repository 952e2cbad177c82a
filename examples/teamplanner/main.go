// Teamplanner: the Section 3.1.1 use case — early, relative effort
// estimation for a new processor project. The 18 bundled synthetic
// components stand in for a new design's RTL: each is measured through
// the full pipeline, DEE1 (calibrated on the paper's historical data)
// ranks them, and engineers are allocated proportionally.
//
// "These relative estimates may be useful when allocating engineers to
// verification teams; they may also allow an early determination of
// which components are likely to delay project completion." — §3.1.1
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/designs"
	"repro/internal/measure"
)

const teamSize = 20 // engineers available for the new project

func main() {
	// Calibrate DEE1 on historical data (the paper's database).
	cal, err := core.CalibrateDEE1(dataset.Paper())
	if err != nil {
		log.Fatal(err)
	}

	// Measure every component of the "new" design (in parallel; each
	// runs the full accounting + synthesis pipeline).
	type item struct {
		label    string
		estimate float64
		lo, hi   float64
	}
	comps := designs.All()
	items := make([]item, len(comps))
	var wg sync.WaitGroup
	errs := make([]error, len(comps))
	for i, c := range comps {
		wg.Add(1)
		go func(i int, c designs.Component) {
			defer wg.Done()
			d, err := designs.Design(c)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := measure.MeasureComponent(d, c.Top, true, measure.Options{})
			if err != nil {
				errs[i] = err
				return
			}
			// rho=1: relative estimation mode.
			est, err := cal.Estimate(res.Metrics, 1)
			if err != nil {
				errs[i] = err
				return
			}
			items[i] = item{label: c.Label(), estimate: est.Median, lo: est.CI90[0], hi: est.CI90[1]}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}

	sort.Slice(items, func(a, b int) bool { return items[a].estimate > items[b].estimate })
	var total float64
	for _, it := range items {
		total += it.estimate
	}

	fmt.Printf("relative DEE1 estimates for the new design (rho = 1):\n\n")
	fmt.Printf("  %-18s %9s %6s  %-9s %s\n", "component", "estimate", "share", "engineers", "90% interval")
	for _, it := range items {
		share := it.estimate / total
		engineers := share * teamSize
		fmt.Printf("  %-18s %9.2f %5.1f%%  %9.1f  (%.1f .. %.1f)\n",
			it.label, it.estimate, share*100, engineers, it.lo, it.hi)
	}
	fmt.Printf("\ncritical path: %s (largest estimated effort — staff it first)\n", items[0].label)
	fmt.Printf("total relative effort: %.1f units across %d engineers\n", total, teamSize)
}
