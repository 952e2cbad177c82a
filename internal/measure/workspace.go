package measure

import (
	"sync"

	"repro/internal/cones"
	"repro/internal/fpga"
	"repro/internal/power"
	"repro/internal/synth"
	"repro/internal/timing"
)

// Workspace bundles the per-worker scratch of the whole measurement
// kernel chain — lowering and netlist optimization, cone extraction,
// LUT mapping, power analysis, and the timing summary — so one pool
// worker can measure design point after design point with near-zero
// steady-state heap allocation. A workspace is owned by exactly one goroutine at a time.
// The golden tests pin the workspace kernels against a fresh-allocation
// reference pipeline that lives in the tests.
type Workspace struct {
	synth  *synth.Workspace
	cones  cones.Workspace
	fpga   fpga.Workspace
	power  power.Workspace
	timing timing.Workspace
}

// reset drops references into measured data so a pooled workspace pins
// only its own buffers between uses.
func (w *Workspace) reset() {
	w.synth.Reset()
	w.cones.Reset()
	w.fpga.Reset()
}

// wsPool is the process-wide workspace pool. Sessions share nothing
// but this pool: a workspace is taken for the duration of one worker's
// run and reset before going back, so concurrent sessions only ever
// exchange quiescent buffer capacity.
var wsPool = sync.Pool{New: func() any {
	return &Workspace{synth: synth.NewWorkspace()}
}}

func getWorkspace() *Workspace  { return wsPool.Get().(*Workspace) }
func putWorkspace(w *Workspace) { w.reset(); wsPool.Put(w) }
