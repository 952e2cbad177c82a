package netlist

import (
	"reflect"
	"sync"
	"testing"
)

// buildPair constructs a tiny netlist: two inputs, an AND feeding a
// DFF, and the DFF driving an output. The inputs' representative
// preference comes from the caller so tests can vary it without
// varying structure.
func buildPair(t *testing.T, aNamed, bNamed bool) *Netlist {
	t.Helper()
	b := NewBuilder(nil)
	clk := b.NewNet(true)
	x := b.NewNet(aNamed)
	y := b.NewNet(bNamed)
	b.AddInput("clk", clk)
	b.AddInput("a", x)
	b.AddInput("b", y)
	g := b.And(x, y)
	q := b.NewDFF(g, clk)
	b.AddOutput("q", q)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// TestHashStableAndNameIndependent checks that the hash is stable, that
// a net's representative preference reaches it only through structure
// (no alias here, so none), and that a structural change moves it.
func TestHashStableAndNameIndependent(t *testing.T) {
	n1 := buildPair(t, true, true)
	n2 := buildPair(t, false, false)
	if n1.Hash() != n2.Hash() {
		t.Errorf("representative preference changed the structural hash:\n%s\n%s", n1.Hash(), n2.Hash())
	}
	if got := n1.Hash(); got != n1.Hash() {
		t.Errorf("hash not stable across calls")
	}

	// A structural change must change the hash.
	b := NewBuilder(nil)
	clk := b.NewNet(true)
	x := b.NewNet(true)
	y := b.NewNet(true)
	b.AddInput("clk", clk)
	b.AddInput("a", x)
	b.AddInput("b", y)
	g := b.Or(x, y) // OR instead of AND
	q := b.NewDFF(g, clk)
	b.AddOutput("q", q)
	n3, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n3.Hash() == n1.Hash() {
		t.Error("structurally different netlists hash equal")
	}
}

func TestDriversAndTopoOrderCached(t *testing.T) {
	n := buildPair(t, true, true)
	d1, d2 := n.Drivers(), n.Drivers()
	if &d1[0] != &d2[0] {
		t.Error("Drivers recomputed instead of cached")
	}
	o1, err1 := n.TopoOrder()
	o2, err2 := n.TopoOrder()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(o1) == 0 || &o1[0] != &o2[0] {
		t.Error("TopoOrder recomputed instead of cached")
	}
}

func TestDerivedStructuresConcurrentAccess(t *testing.T) {
	n := buildPair(t, true, true)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.Drivers()
			if _, err := n.TopoOrder(); err != nil {
				t.Error(err)
			}
			n.Hash()
		}()
	}
	wg.Wait()
}

// TestOptimizeDoesNotMutateInput pins the immutability contract the
// derived-structure cache relies on: Optimize must leave its input
// netlist — cells, RAM ports, hash — untouched.
func TestOptimizeDoesNotMutateInput(t *testing.T) {
	b := NewBuilder(nil)
	clk := b.NewNet(true)
	a := b.NewNet(true)
	b.AddInput("clk", clk)
	b.AddInput("a", a)
	// Redundant logic the optimizer will rewrite: (a & 1) through a
	// buffer chain, plus a RAM whose address goes through a buffer.
	buf1 := b.rawCell(Buf, a, Nil, Nil, Nil)
	buf2 := b.rawCell(Buf, buf1, Nil, Nil, Nil)
	d := b.rawCell(And2, buf2, b.Const1(), Nil, Nil)
	q := b.NewDFF(d, clk)
	b.AddOutput("q", q)
	addr := b.rawCell(Buf, q, Nil, Nil, Nil)
	ram := &RAM{
		Width: 1, Depth: 2, Clk: clk,
		WritePorts: []RAMWritePort{{En: b.Const1(), Addr: []NetID{addr}, Data: []NetID{d}}},
		ReadPorts:  []RAMReadPort{{Addr: []NetID{addr}, Out: []NetID{b.NewNet(true)}}},
	}
	b.AddRAM(ram)
	b.AddOutput("rd", ram.ReadPorts[0].Out[0])
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	hashBefore := nl.Hash()
	cellsBefore := append([]Cell(nil), nl.Cells...)
	var ramsBefore []RAM
	for _, r := range nl.RAMs {
		rc := *r
		rc.WritePorts = append([]RAMWritePort(nil), r.WritePorts...)
		for i, wp := range r.WritePorts {
			rc.WritePorts[i].Addr = append([]NetID(nil), wp.Addr...)
			rc.WritePorts[i].Data = append([]NetID(nil), wp.Data...)
		}
		rc.ReadPorts = append([]RAMReadPort(nil), r.ReadPorts...)
		for i, rp := range r.ReadPorts {
			rc.ReadPorts[i].Addr = append([]NetID(nil), rp.Addr...)
			rc.ReadPorts[i].Out = append([]NetID(nil), rp.Out...)
		}
		ramsBefore = append(ramsBefore, rc)
	}

	opt, res, err := OptimizeWS(nl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConstFolded == 0 {
		t.Fatalf("optimizer found nothing to do; test netlist is not exercising rewrites: %+v", res)
	}
	if opt == nl {
		t.Fatal("Optimize returned its input")
	}

	if !reflect.DeepEqual(cellsBefore, nl.Cells) {
		t.Error("Optimize mutated the input netlist's cells")
	}
	for i, r := range nl.RAMs {
		if !reflect.DeepEqual(ramsBefore[i].WritePorts, r.WritePorts) ||
			!reflect.DeepEqual(ramsBefore[i].ReadPorts, r.ReadPorts) ||
			ramsBefore[i].Clk != r.Clk {
			t.Errorf("Optimize mutated input RAM %d", i)
		}
	}
	if nl.Hash() != hashBefore {
		t.Error("Optimize changed the input netlist's structural hash")
	}
}
