package equiv

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/synth"
)

// moduleGen generates random synthesizable µHDL modules: random-width
// inputs, combinational assignments over a random expression grammar,
// and a clocked always block with nested if/case statements. Every
// generated module is checked for RTL↔gate equivalence over random
// vectors — a differential test of the parser, elaborator,
// synthesizer, optimizer, and both simulators at once.
type moduleGen struct {
	rng    *rand.Rand
	inputs []genSig
	regs   []genSig
	wires  []genSig
}

type genSig struct {
	name  string
	width int
}

func (g *moduleGen) pickSignal() genSig {
	pool := append(append([]genSig{}, g.inputs...), g.regs...)
	pool = append(pool, g.wires...)
	return pool[g.rng.Intn(len(pool))]
}

// expr builds a random expression of bounded depth and returns its text.
func (g *moduleGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%d'd%d", 4, g.rng.Intn(16))
		case 1:
			s := g.pickSignal()
			if s.width > 1 && g.rng.Intn(2) == 0 {
				bit := g.rng.Intn(s.width)
				return fmt.Sprintf("%s[%d]", s.name, bit)
			}
			return s.name
		case 2:
			s := g.pickSignal()
			if s.width >= 2 {
				lo := g.rng.Intn(s.width - 1)
				hi := lo + g.rng.Intn(s.width-lo)
				return fmt.Sprintf("%s[%d:%d]", s.name, hi, lo)
			}
			return s.name
		default:
			return g.pickSignal().name
		}
	}
	switch g.rng.Intn(12) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.expr(depth-1), g.expr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.expr(depth-1), g.expr(depth-1))
	case 2:
		return fmt.Sprintf("(%s & %s)", g.expr(depth-1), g.expr(depth-1))
	case 3:
		return fmt.Sprintf("(%s | %s)", g.expr(depth-1), g.expr(depth-1))
	case 4:
		return fmt.Sprintf("(%s ^ %s)", g.expr(depth-1), g.expr(depth-1))
	case 5:
		return fmt.Sprintf("(~%s)", g.expr(depth-1))
	case 6:
		return fmt.Sprintf("(%s == %s)", g.expr(depth-1), g.expr(depth-1))
	case 7:
		return fmt.Sprintf("(%s < %s)", g.expr(depth-1), g.expr(depth-1))
	case 8:
		return fmt.Sprintf("(%s ? %s : %s)", g.expr(depth-1), g.expr(depth-1), g.expr(depth-1))
	case 9:
		return fmt.Sprintf("(%s << %d)", g.expr(depth-1), g.rng.Intn(4))
	case 10:
		return fmt.Sprintf("(%s * %s)", g.expr(depth-1), g.expr(depth-1))
	default:
		return fmt.Sprintf("{%s, %s}", g.expr(depth-1), g.expr(depth-1))
	}
}

// stmt builds a random procedural statement assigning (nonblocking) to
// the given reg.
func (g *moduleGen) stmt(target genSig, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return fmt.Sprintf("%s <= %s;", target.name, g.expr(2))
	}
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("if (%s) begin %s end else begin %s end",
			g.expr(1), g.stmt(target, depth-1), g.stmt(target, depth-1))
	case 1:
		return fmt.Sprintf("if (%s) begin %s end",
			g.expr(1), g.stmt(target, depth-1))
	default:
		sel := g.pickSignal()
		for tries := 0; sel.width < 2 && tries < 10; tries++ {
			sel = g.pickSignal()
		}
		if sel.width < 2 {
			return fmt.Sprintf("%s <= %s;", target.name, g.expr(2))
		}
		return fmt.Sprintf(`case (%s[1:0])
      2'd0: %s
      2'd1: %s
      default: %s
    endcase`, sel.name,
			g.stmt(target, depth-1), g.stmt(target, depth-1), g.stmt(target, depth-1))
	}
}

// loopSpec shapes the optional for-loop block of a generated module:
// output reg lp of k*n bits, assigned from input src in n trips over
// integer i, each trip writing one k-bit slice (or, with bits, k*n
// trips writing one bit each).
type loopSpec struct {
	src     genSig
	k, n    int
	form    int
	clocked bool
}

// loopBlock emits the always block of spec. The loop variable appears
// in the index or part-select bounds on both sides of the assignment,
// and the right-hand side mixes in a random expression over the
// module's other signals.
func (g *moduleGen) loopBlock(l loopSpec) string {
	op, sens := "=", "*"
	if l.clocked {
		op, sens = "<=", "posedge clk"
	}
	k, last := l.k, l.k*l.n-1
	var body string
	switch l.form {
	case 0: // slice to the same slice
		body = fmt.Sprintf("for (i = 0; i < %d; i = i + 1) lp[%d*i+%d:%d*i] %s src[%d*i+%d:%d*i] ^ %s;",
			l.n, k, k-1, k, op, k, k-1, k, g.expr(1))
	case 1: // slice to the mirrored slice
		body = fmt.Sprintf("for (i = 0; i < %d; i = i + 1) lp[%d*i+%d:%d*i] %s src[%d-%d*i:%d-%d*i] + %s;",
			l.n, k, k-1, k, op, last, k, last-k+1, k, g.expr(1))
	case 2: // bit to the mirrored bit
		body = fmt.Sprintf("for (i = 0; i < %d; i = i + 1) lp[i] %s src[%d-i] & %s;",
			last+1, op, last, g.expr(1))
	default: // slice to a concatenation of bits and a part select
		body = fmt.Sprintf("for (i = 0; i < %d; i = i + 1) lp[%d*i+%d:%d*i] %s {src[%d*i], src[%d*i+%d:%d*i]} | %s;",
			l.n, k, k-1, k, op, k, k, k-1, k, g.expr(1))
	}
	body = strings.ReplaceAll(body, "src", l.src.name)
	return fmt.Sprintf("  integer i;\n  always @(%s) begin\n    %s\n  end\n", sens, body)
}

// generate emits one random module.
func generateModule(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	g := &moduleGen{rng: rng}
	nIn := 2 + rng.Intn(3)
	nWire := 1 + rng.Intn(3)
	nReg := 1 + rng.Intn(2)
	// The loop block draws its shape from a stream of its own, so a
	// seed's other signals and statements stay as they were without it.
	lrng := rand.New(rand.NewSource(^seed))
	hasLoop := lrng.Intn(2) == 0
	var loop loopSpec

	var b strings.Builder
	b.WriteString("module fuzz (\n  input clk,\n")
	for i := 0; i < nIn; i++ {
		w := 1 + rng.Intn(8)
		g.inputs = append(g.inputs, genSig{fmt.Sprintf("in%d", i), w})
		fmt.Fprintf(&b, "  input [%d:0] in%d,\n", w-1, i)
	}
	for i := 0; i < nWire; i++ {
		w := 1 + rng.Intn(8)
		g.wires = append(g.wires, genSig{fmt.Sprintf("w%d", i), w})
		fmt.Fprintf(&b, "  output [%d:0] w%d,\n", w-1, i)
	}
	for i := 0; i < nReg; i++ {
		w := 1 + rng.Intn(8)
		g.regs = append(g.regs, genSig{fmt.Sprintf("r%d", i), w})
		fmt.Fprintf(&b, "  output reg [%d:0] r%d", w-1, i)
		if i < nReg-1 || hasLoop {
			b.WriteString(",\n")
		} else {
			b.WriteString("\n")
		}
	}
	if hasLoop {
		loop.src = g.inputs[0]
		for _, in := range g.inputs[1:] {
			if in.width > loop.src.width {
				loop.src = in
			}
		}
		loop.k = 1 + lrng.Intn(min(2, loop.src.width))
		slices := loop.src.width / loop.k
		loop.n = slices - lrng.Intn((slices+1)/2)
		loop.form = lrng.Intn(4)
		if loop.form == 3 && loop.k < 2 {
			loop.form = 0
		}
		loop.clocked = lrng.Intn(2) == 0
		fmt.Fprintf(&b, "  output reg [%d:0] lp\n", loop.k*loop.n-1)
	}
	b.WriteString(");\n")

	// Combinational outputs reference inputs and registers (wires are
	// declared before their drivers exist during generation, so only
	// prior wires appear in later expressions).
	declared := g.wires
	g.wires = nil
	for _, w := range declared {
		fmt.Fprintf(&b, "  assign %s = %s;\n", w.name, g.expr(3))
		g.wires = append(g.wires, w)
	}
	// One clocked block per register.
	for _, r := range g.regs {
		fmt.Fprintf(&b, "  always @(posedge clk) begin\n    %s\n  end\n", g.stmt(r, 2))
	}
	// lp is in no signal pool, so no expression reads it and the
	// combinational form cannot close a loop.
	if hasLoop {
		b.WriteString(g.loopBlock(loop))
	}
	b.WriteString("endmodule\n")
	return b.String()
}

func TestFuzzEquivalence(t *testing.T) {
	// 60 random modules × 20 cycles of random vectors each. Any
	// divergence between the RTL interpreter and the synthesized gates
	// fails with the generated source for reproduction.
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		src := generateModule(seed)
		d, err := hdl.ParseDesign(map[string]string{"fuzz.v": src})
		if err != nil {
			t.Fatalf("seed %d: generated module failed to parse: %v\n%s", seed, err, src)
		}
		if _, err := CheckEquivalence(d, "fuzz", nil, 20, seed*7+1); err != nil {
			t.Errorf("seed %d: %v\n--- generated source ---\n%s", seed, err, src)
		}
	}
}

// FuzzEquivalence is the Go-native fuzzing entry point over the same
// generator: the fuzzer explores the seed space (every seed names one
// deterministic random module) and each input must synthesize to gates
// that match the RTL interpreter cycle for cycle. `go test
// -fuzz=FuzzEquivalence ./internal/equiv` searches open-endedly; CI
// runs a short smoke.
func FuzzEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := generateModule(seed)
		d, err := hdl.ParseDesign(map[string]string{"fuzz.v": src})
		if err != nil {
			t.Fatalf("seed %d: generated module failed to parse: %v\n%s", seed, err, src)
		}
		if _, err := CheckEquivalence(d, "fuzz", nil, 20, seed*7+1); err != nil {
			t.Errorf("seed %d: %v\n--- generated source ---\n%s", seed, err, src)
		}
	})
}

// TestFuzzOptimizePreservesBehaviour drives the raw (pre-optimization)
// and optimized netlists of random modules with identical vectors —
// the differential test of internal/netlist's constant folding, CSE,
// and dead-logic removal.
func TestFuzzOptimizePreservesBehaviour(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	for seed := int64(100); seed < int64(100+n); seed++ {
		src := generateModule(seed)
		d, err := hdl.ParseDesign(map[string]string{"fuzz.v": src})
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		res, err := synth.Synthesize(d, "fuzz", nil)
		if err != nil {
			t.Fatalf("seed %d: synthesize: %v\n%s", seed, err, src)
		}
		rawSim, err := sim.NewGateSim(res.Raw)
		if err != nil {
			t.Fatalf("seed %d: raw sim: %v", seed, err)
		}
		optSim, err := sim.NewGateSim(res.Optimized)
		if err != nil {
			t.Fatalf("seed %d: optimized sim: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 31))
		inputs := rawSim.InputNames()
		outputs := rawSim.OutputNames()
		for cycle := 0; cycle < 15; cycle++ {
			for _, in := range inputs {
				if in == "clk" {
					continue
				}
				v := rng.Uint64()
				rawSim.SetInput(in, v)
				optSim.SetInput(in, v)
			}
			if err := rawSim.Step(); err != nil {
				t.Fatalf("seed %d: raw step: %v", seed, err)
			}
			if err := optSim.Step(); err != nil {
				t.Fatalf("seed %d: optimized step: %v", seed, err)
			}
			for _, o := range outputs {
				rv, err1 := rawSim.Output(o)
				ov, err2 := optSim.Output(o)
				if err1 != nil || err2 != nil {
					t.Fatalf("seed %d: output %s: %v %v", seed, o, err1, err2)
				}
				if rv != ov {
					t.Fatalf("seed %d cycle %d: optimizer changed %s: raw=%#x optimized=%#x\n%s",
						seed, cycle, o, rv, ov, src)
				}
			}
		}
	}
}
