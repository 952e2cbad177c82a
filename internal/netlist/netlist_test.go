package netlist

import (
	"testing"
)

func TestBuilderConstFolding(t *testing.T) {
	b := NewBuilder(nil)
	a := b.NewNet(true)
	if got := b.And(b.Const0(), a); got != b.Const0() {
		t.Error("0 & a must fold to 0")
	}
	if got := b.And(b.Const1(), a); got != a {
		t.Error("1 & a must fold to a")
	}
	if got := b.Or(b.Const1(), a); got != b.Const1() {
		t.Error("1 | a must fold to 1")
	}
	if got := b.Xor(a, a); got != b.Const0() {
		t.Error("a ^ a must fold to 0")
	}
	if got := b.Not(b.Const0()); got != b.Const1() {
		t.Error("~0 must fold to 1")
	}
	if got := b.Mux(b.Const1(), a, b.Const0()); got != b.Const0() {
		t.Error("mux(1,a,0) must fold to 0")
	}
	if got := b.Mux(a, b.Const0(), b.Const1()); got != a {
		t.Error("mux(s,0,1) must fold to s")
	}
	s := b.NewNet(true)
	if got := b.Mux(s, b.Const1(), b.Const0()); got == s {
		t.Error("mux(s,1,0) must be ~s, not s")
	}
}

func TestBuilderAliasMergesNets(t *testing.T) {
	b := NewBuilder(nil)
	a := b.NewNet(true)
	x := b.NewNet(false) // anonymous
	if err := b.Alias(a, x); err != nil {
		t.Fatal(err)
	}
	if b.Find(x) != b.Find(a) {
		t.Error("alias failed")
	}
	// Named net wins representation.
	if b.Find(x) != a {
		t.Errorf("representative = %d, want named net %d", b.Find(x), a)
	}
	// Constant aliasing.
	y := b.NewNet(true)
	if err := b.Alias(y, b.Const1()); err != nil {
		t.Fatal(err)
	}
	if v, ok := b.IsConst(y); !ok || !v {
		t.Error("y must now be const1")
	}
	if err := b.Alias(b.Const0(), y); err == nil {
		t.Error("aliasing const0 to const1 must fail")
	}
}

func TestBuildDetectsMultipleDrivers(t *testing.T) {
	b := NewBuilder(nil)
	a := b.NewNet(true)
	c := b.NewNet(true)
	g1 := b.And(a, c)
	g2 := b.Or(a, c)
	if err := b.Alias(g1, g2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("expected multiple-driver error")
	}
}

func TestBuildCompactsNets(t *testing.T) {
	b := NewBuilder(nil)
	a := b.NewNet(true)
	b.NewNet(true)
	b.NewNet(true)
	y := b.Not(a)
	b.AddInput("a", a)
	b.AddOutput("y", y)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// const0, const1, a, y = 4 nets; the unused ones disappear.
	if nl.NumNets() != 4 {
		t.Errorf("nets = %d, want 4", nl.NumNets())
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
}

// buildFullAdder constructs sum/carry from three inputs.
func buildFullAdder(b *Builder, x, y, cin NetID) (sum, cout NetID) {
	s1 := b.Xor(x, y)
	sum = b.Xor(s1, cin)
	cout = b.Or(b.And(x, y), b.And(s1, cin))
	return sum, cout
}

func TestTopoOrder(t *testing.T) {
	b := NewBuilder(nil)
	x := b.NewNet(true)
	y := b.NewNet(true)
	cin := b.NewNet(true)
	sum, cout := buildFullAdder(b, x, y, cin)
	b.AddInput("x", x)
	b.AddInput("y", y)
	b.AddInput("cin", cin)
	b.AddOutput("sum", sum)
	b.AddOutput("cout", cout)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	order, err := nl.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(nl.Cells) {
		t.Fatalf("topo covers %d of %d cells", len(order), len(nl.Cells))
	}
	// Every cell's inputs must be produced before it.
	pos := map[int]int{}
	for i, ci := range order {
		pos[ci] = i
	}
	drivers := nl.Drivers()
	for i, ci := range order {
		for _, in := range nl.Cells[ci].Inputs() {
			if d := drivers[in]; d >= 0 && !nl.Cells[d].Type.IsSequential() && pos[d] > i {
				t.Fatalf("cell %d consumed before producer %d", ci, d)
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	b := NewBuilder(nil)
	a := b.NewNet(true)
	g1 := b.And(a, a) // will rewrite below
	_ = g1
	// Construct a deliberate cycle: two INVs feeding each other.
	n1 := b.NewNet(true)
	inv1 := b.Not(n1)
	if err := b.Alias(n1, b.Not(inv1)); err != nil {
		t.Fatal(err)
	}
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nl.TopoOrder(); err == nil {
		t.Fatal("expected cycle error")
	}
}

func TestDFFBreaksCycle(t *testing.T) {
	// q = DFF(~q) is a valid sequential loop (toggle flop).
	b := NewBuilder(nil)
	clk := b.NewNet(true)
	q := b.NewNet(true)
	d := b.Not(q)
	qd := b.NewDFF(d, clk)
	if err := b.Alias(q, qd); err != nil {
		t.Fatal(err)
	}
	b.AddInput("clk", clk)
	b.AddOutput("q", q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nl.TopoOrder(); err != nil {
		t.Fatalf("sequential loop must not be a cycle: %v", err)
	}
	if nl.NumFFs() != 1 {
		t.Errorf("FFs = %d", nl.NumFFs())
	}
}

func TestOptimizeConstantPropagation(t *testing.T) {
	b := NewBuilder(nil)
	a := b.NewNet(true)
	c := b.NewNet(true)
	// Build gates that constant-fold only after CSE/subst: (a&c) XOR (a&c).
	g1 := b.rawCell(And2, a, c, Nil, Nil)
	g2 := b.rawCell(And2, a, c, Nil, Nil)
	x := b.rawCell(Xor2, g1, g2, Nil, Nil)
	b.AddInput("a", a)
	b.AddInput("c", c)
	b.AddOutput("x", x)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt, res, err := OptimizeWS(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 {
		t.Error("expected CSE merge")
	}
	// x = g XOR g = 0 → everything dead, output tied to const0.
	if len(opt.Cells) != 0 {
		t.Errorf("cells = %d, want 0 (all folded): %+v", len(opt.Cells), opt.Cells)
	}
	if opt.Outputs[0].Net != opt.Const0 {
		t.Error("output must be const0")
	}
}

func TestOptimizeRemovesDeadLogic(t *testing.T) {
	b := NewBuilder(nil)
	a := b.NewNet(true)
	c := b.NewNet(true)
	used := b.And(a, c)
	b.Or(a, c) // dead: never observed
	b.AddInput("a", a)
	b.AddInput("c", c)
	b.AddOutput("y", used)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt, res, err := OptimizeWS(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadRemoved == 0 {
		t.Error("expected dead removal")
	}
	if len(opt.Cells) != 1 {
		t.Errorf("cells = %d, want 1", len(opt.Cells))
	}
}

func TestOptimizeRemovesUnobservedFF(t *testing.T) {
	b := NewBuilder(nil)
	clk := b.NewNet(true)
	d := b.NewNet(true)
	b.NewDFF(d, clk) // Q never used
	keep := b.NewDFF(d, clk)
	b.AddInput("clk", clk)
	b.AddInput("d", d)
	b.AddOutput("q", keep)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := OptimizeWS(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumFFs() != 1 {
		t.Errorf("FFs = %d, want 1", opt.NumFFs())
	}
}

func TestOptimizePreservesRAMLogic(t *testing.T) {
	b := NewBuilder(nil)
	clk := b.NewNet(true)
	en := b.NewNet(true)
	addr := []NetID{b.NewNet(true)}
	data := []NetID{b.And(en, addr[0])}
	rout := []NetID{b.NewNet(true)}
	b.AddRAM(&RAM{
		Width: 1, Depth: 2,
		Clk:        clk,
		WritePorts: []RAMWritePort{{En: en, Addr: addr, Data: data}},
		ReadPorts:  []RAMReadPort{{Addr: []NetID{addr[0]}, Out: rout}},
	})
	b.AddInput("clk", clk)
	b.AddInput("en", en)
	b.AddInput("addr0", addr[0])
	b.AddOutput("q", rout[0])
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := OptimizeWS(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The AND feeding write data must survive (RAM pins are roots).
	if len(opt.Cells) != 1 {
		t.Errorf("cells = %d, want 1", len(opt.Cells))
	}
	st := opt.Stats()
	if st.RAMs != 1 || st.Cells != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsCounts(t *testing.T) {
	b := NewBuilder(nil)
	clk := b.NewNet(true)
	d := b.NewNet(true)
	q := b.NewDFF(d, clk)
	y := b.Not(q)
	b.AddInput("clk", clk)
	b.AddInput("d", d)
	b.AddOutput("y", y)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := nl.Stats()
	if st.Cells != 2 || st.FFs != 1 {
		t.Errorf("stats = %+v", st)
	}
	// nets: clk, d, q, y — constants unused.
	if st.Nets != 4 {
		t.Errorf("nets = %d, want 4", st.Nets)
	}
}

func TestCellTypeProperties(t *testing.T) {
	if !DFF.IsSequential() || !Latch.IsSequential() || And2.IsSequential() {
		t.Error("IsSequential misclassifies")
	}
	if Inv.NumInputs() != 1 || Mux2.NumInputs() != 3 || Latch.NumInputs() != 2 || And2.NumInputs() != 2 {
		t.Error("NumInputs wrong")
	}
	for ct := CellType(0); ct < NumCellTypes; ct++ {
		if ct.String() == "" {
			t.Errorf("missing name for cell type %d", ct)
		}
	}
}
