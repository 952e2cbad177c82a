package netlist_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// view is what a netlist's users read of it: its structure and every
// derived table.
type view struct {
	Hash                   string
	Nets                   int
	Const0, Const1         netlist.NetID
	Cells                  []netlist.Cell
	RAMs                   []netlist.RAM
	Inputs, Outputs        []netlist.PortBit
	Drivers                []int
	Topo                   []int
	Stats                  netlist.Stats
	ValidateErr, TopoError error
}

// snapshot copies everything out of n, so a later comparison sees
// whether n's memory changed under it.
func snapshot(t *testing.T, n *netlist.Netlist) view {
	t.Helper()
	topo, err := n.TopoOrder()
	v := view{
		Hash:        n.Hash(),
		Nets:        n.Nets,
		Const0:      n.Const0,
		Const1:      n.Const1,
		Cells:       slices.Clone(n.Cells),
		Inputs:      slices.Clone(n.Inputs),
		Outputs:     slices.Clone(n.Outputs),
		Drivers:     slices.Clone(n.Drivers()),
		Topo:        slices.Clone(topo),
		Stats:       n.Stats(),
		ValidateErr: n.Validate(),
		TopoError:   err,
	}
	for _, r := range n.RAMs {
		v.RAMs = append(v.RAMs, *r)
	}
	return v
}

// TestWorkspaceNetlistsMatchFresh pins the workspace lifetime contract
// over the 18 paper components, with and without the single-instance
// rule. Netlists built and optimized on one reused workspace — read
// before its next run, as a measurement worker reads them — equal
// those of a nil workspace in hash, driver table, topological order
// and Stats. And the nil-workspace netlists, all kept to the end, are
// unchanged after every later run on the shared workspace and every
// later nil-workspace call.
func TestWorkspaceNetlistsMatchFresh(t *testing.T) {
	ws := synth.NewWorkspace()
	type kept struct {
		label    string
		raw, opt *netlist.Netlist
		rawV     view
		optV     view
	}
	var fresh []kept
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		inst, _, err := elab.ElaborateOpts(d, c.Top, nil, elab.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		for _, dedup := range []bool{false, true} {
			raw0, _, err := synth.LowerOpts(inst, synth.LowerOptions{DedupInstances: dedup})
			if err != nil {
				t.Fatalf("%s: %v", c.Label(), err)
			}
			opt0, _, err := netlist.OptimizeWS(raw0, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.Label(), err)
			}
			k := kept{label: c.Label(), raw: raw0, opt: opt0, rawV: snapshot(t, raw0), optV: snapshot(t, opt0)}
			fresh = append(fresh, k)

			raw, _, err := synth.LowerOpts(inst, synth.LowerOptions{DedupInstances: dedup, Workspace: ws})
			if err != nil {
				t.Fatalf("%s: %v", c.Label(), err)
			}
			opt, _, err := netlist.OptimizeWS(raw, &ws.NL)
			if err != nil {
				t.Fatalf("%s: %v", c.Label(), err)
			}
			if got := snapshot(t, raw); !reflect.DeepEqual(got, k.rawV) {
				t.Errorf("%s dedup=%t: raw netlist on a reused workspace differs from a nil workspace's", c.Label(), dedup)
			}
			if got := snapshot(t, opt); !reflect.DeepEqual(got, k.optV) {
				t.Errorf("%s dedup=%t: optimized netlist on a reused workspace differs from a nil workspace's", c.Label(), dedup)
			}
		}
	}
	for _, k := range fresh {
		if !reflect.DeepEqual(snapshot(t, k.raw), k.rawV) || !reflect.DeepEqual(snapshot(t, k.opt), k.optV) {
			t.Errorf("%s: a nil-workspace netlist changed after later calls", k.label)
		}
	}
}

// buildCycle returns one warm Build → OptimizeWS → Validate → Hash →
// Stats cycle on ws over a netlist of n chained gate stages and one
// RAM macro with a write and a read port.
func buildCycle(t *testing.T, ws *netlist.Workspace, n int) func() {
	// The caller's RAM is made once: Build resolves its pins in place,
	// which is idempotent, and copies it into the netlist.
	ram := &netlist.RAM{Width: 2, Depth: 2}
	return func() {
		b := netlist.NewBuilder(ws)
		clk := b.NewNet(true)
		b.AddInput("clk", clk)
		x := b.NewNet(true)
		b.AddInput("x", x)
		en := b.NewNet(true)
		b.AddInput("en", en)
		v := x
		for i := 0; i < n; i++ {
			v = b.Xor(b.And(v, en), b.NewDFF(v, clk))
		}
		if ram.ReadPorts == nil {
			ram.Clk = clk
			ram.WritePorts = []netlist.RAMWritePort{{En: en, Addr: []netlist.NetID{x}, Data: []netlist.NetID{v, x}}}
			ram.ReadPorts = []netlist.RAMReadPort{{Addr: []netlist.NetID{en}, Out: []netlist.NetID{b.NewNet(false), b.NewNet(false)}}}
		} else {
			// Allocate the read outputs' nets again, at the same ids.
			b.NewNet(false)
			b.NewNet(false)
		}
		b.AddRAM(ram)
		b.AddOutput("y", b.Or(v, ram.ReadPorts[0].Out[0]))
		b.AddOutput("z", ram.ReadPorts[0].Out[1])
		raw, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := netlist.OptimizeWS(raw, ws)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatal(err)
		}
		if opt.Hash() == "" || opt.Stats().RAMs != 1 {
			t.Fatal("degenerate netlist")
		}
	}
}

// TestWarmWorkspaceCycleAllocs bounds a warm Build → OptimizeWS →
// Validate → Hash → Stats cycle on a reused workspace: nothing sized
// by the netlist allocates. What may allocate is fixed per cycle — the
// Builder, the two Netlist headers, and the hash's digest, sum and hex
// string — plus the RAM macro copies (Build's and OptimizeWS's: the
// macro, its port lists and each port's pin lists, 7 apiece here).
// The count must not move from 10 stages to 1000.
func TestWarmWorkspaceCycleAllocs(t *testing.T) {
	const fixed, ramCopies = 6, 2 * 7
	var counts []float64
	for _, n := range []int{10, 1000} {
		ws := &netlist.Workspace{}
		counts = append(counts, testing.AllocsPerRun(20, buildCycle(t, ws, n)))
	}
	t.Logf("allocations per cycle: %v", counts)
	for i, got := range counts {
		if got > fixed+ramCopies {
			t.Errorf("cycle %d: %.0f allocations, want at most %d (fixed) + %d (RAM copies)", i, got, fixed, ramCopies)
		}
	}
	if counts[1] != counts[0] {
		t.Errorf("allocations grow with the netlist: %.0f at 10 stages, %.0f at 1000", counts[0], counts[1])
	}
}

// TestWorkspaceNetlistConcurrentReads reads one workspace-optimized
// netlist from eight goroutines at once: its driver table and
// topological order are memoized in the workspace's scratch, and
// Stats and Validate take their per-net maps from the same scratch, so
// every read must be serialized by the netlist's lock (run with
// -race) and agree with a nil-workspace netlist.
func TestWorkspaceNetlistConcurrentReads(t *testing.T) {
	c, err := designs.ByLabel("IVM-Memory")
	if err != nil {
		t.Fatal(err)
	}
	d, err := designs.Design(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, c.Top, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, res.Optimized)
	ws := &netlist.Workspace{}
	opt, _, err := netlist.OptimizeWS(res.Raw, ws)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	views := make([]view, 8)
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = snapshot(t, opt)
		}()
	}
	wg.Wait()
	for i, v := range views {
		if !reflect.DeepEqual(v, want) {
			t.Errorf("goroutine %d read a netlist that differs from a nil workspace's", i)
		}
	}
}
