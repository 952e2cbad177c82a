package netlist_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// randomNetlist builds a random gate-level netlist straight through the
// Builder: a pool of input bits, a clock, a few hundred cells of every
// primitive type, deliberate structural duplicates (so CSE has work),
// and a subset of nets exposed as outputs (so dead-logic removal has
// work). Every seed is one deterministic netlist.
func randomNetlist(t *testing.T, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := netlist.NewBuilder(nil)

	clk := b.NewNet(true)
	b.AddInput("clk", clk)
	nIn := 3 + rng.Intn(5)
	pool := make([]netlist.NetID, 0, 64)
	for i := 0; i < nIn; i++ {
		n := b.NewNet(true)
		b.AddInput(fmt.Sprintf("in%d", i), n)
		pool = append(pool, n)
	}
	pick := func() netlist.NetID {
		// Occasionally feed a constant so constant folding has work.
		switch rng.Intn(12) {
		case 0:
			return b.Const0()
		case 1:
			return b.Const1()
		}
		return pool[rng.Intn(len(pool))]
	}

	nCells := 20 + rng.Intn(60)
	for i := 0; i < nCells; i++ {
		var out netlist.NetID
		switch rng.Intn(10) {
		case 0:
			out = b.Not(pick())
		case 1:
			out = b.And(pick(), pick())
		case 2:
			out = b.Or(pick(), pick())
		case 3:
			out = b.Xor(pick(), pick())
		case 4:
			out = b.Not(b.And(pick(), pick()))
		case 5:
			out = b.Not(b.Or(pick(), pick()))
		case 6:
			out = b.Xnor(pick(), pick())
		case 7:
			out = b.Mux(pick(), pick(), pick())
		case 8:
			out = b.NewDFF(pick(), clk)
		case 9:
			// Stamp a literal duplicate pair: two cells with identical
			// type and pins but distinct output nets. The builder's
			// peephole folding does not see these, so the optimizer's
			// structural hashing must merge them.
			a, c := pick(), pick()
			o1 := b.NewNet(false)
			o2 := b.NewNet(false)
			b.StampCell(netlist.Cell{Type: netlist.And2, In: [3]netlist.NetID{a, c, netlist.Nil}, Clk: netlist.Nil, Out: o1})
			b.StampCell(netlist.Cell{Type: netlist.And2, In: [3]netlist.NetID{a, c, netlist.Nil}, Clk: netlist.Nil, Out: o2})
			pool = append(pool, o1)
			out = o2
		}
		pool = append(pool, out)
	}

	// Expose a strict subset of the pool: everything else is dead
	// unless it feeds an exposed cone.
	nOut := 1 + rng.Intn(6)
	for i := 0; i < nOut; i++ {
		b.AddOutput(fmt.Sprintf("out%d", i), pool[rng.Intn(len(pool))])
	}
	n, err := b.Build()
	if err != nil {
		t.Fatalf("seed %d: build: %v", seed, err)
	}
	return n
}

// TestOptimizeProperties pins three properties of the optimizer on a
// randomized corpus:
//
//   - idempotence: Optimize(Optimize(n)) is structurally identical to
//     Optimize(n) (same Hash) and the second pass removes nothing;
//   - convergence: the worklist always drains (Converged) and the
//     result validates;
//   - behaviour: the optimized netlist matches the raw one cycle for
//     cycle on random input vectors.
func TestOptimizeProperties(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		raw := randomNetlist(t, seed)
		if err := raw.Validate(); err != nil {
			t.Fatalf("seed %d: raw netlist invalid: %v", seed, err)
		}
		opt, res, err := netlist.OptimizeWS(raw, nil)
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		if !res.Converged {
			t.Errorf("seed %d: worklist did not converge: %+v", seed, res)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("seed %d: optimized netlist invalid: %v", seed, err)
		}

		opt2, res2, err := netlist.OptimizeWS(opt, nil)
		if err != nil {
			t.Fatalf("seed %d: second optimize: %v", seed, err)
		}
		if !res2.Converged {
			t.Errorf("seed %d: second pass did not converge: %+v", seed, res2)
		}
		if g, w := opt2.Hash(), opt.Hash(); g != w {
			t.Errorf("seed %d: optimize not idempotent: second-pass hash %s, first-pass %s", seed, g, w)
		}
		if n := res2.ConstFolded + res2.Merged + res2.DeadRemoved; n != 0 {
			t.Errorf("seed %d: second pass still removed %d cells: %+v", seed, n, res2)
		}

		// Differential simulation: raw vs optimized on random vectors.
		rawSim, err := sim.NewGateSim(raw)
		if err != nil {
			t.Fatalf("seed %d: raw sim: %v", seed, err)
		}
		optSim, err := sim.NewGateSim(opt)
		if err != nil {
			t.Fatalf("seed %d: optimized sim: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 97))
		for cycle := 0; cycle < 12; cycle++ {
			for _, in := range rawSim.InputNames() {
				if in == "clk" {
					continue
				}
				v := rng.Uint64() & 1
				if err := rawSim.SetInput(in, v); err != nil {
					t.Fatalf("seed %d: set raw %s: %v", seed, in, err)
				}
				if err := optSim.SetInput(in, v); err != nil {
					t.Fatalf("seed %d: set optimized %s: %v", seed, in, err)
				}
			}
			if err := rawSim.Step(); err != nil {
				t.Fatalf("seed %d: raw step: %v", seed, err)
			}
			if err := optSim.Step(); err != nil {
				t.Fatalf("seed %d: optimized step: %v", seed, err)
			}
			for _, o := range rawSim.OutputNames() {
				rv, err1 := rawSim.Output(o)
				ov, err2 := optSim.Output(o)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d: output %s: %v %v", seed, o, err1, err2)
				}
				if rv != ov {
					t.Fatalf("seed %d cycle %d: optimizer changed output %s: raw=%#x optimized=%#x",
						seed, cycle, o, rv, ov)
				}
			}
		}
	}
}
