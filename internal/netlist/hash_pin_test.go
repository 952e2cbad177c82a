package netlist_test

import (
	"strconv"
	"testing"

	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// Netlist.Hash digests are compared across program versions: the
// on-disk sig- and component- records store them, and a remeasurement's
// early cutoff matches a fresh netlist against a baseline's. These
// literals pin the exact bytes hashed, so a change to how the hash is
// computed must leave every digest as it was.

// ramNetlist is a hand-built netlist touching every hashed field: named
// inputs and outputs, combinational, mux, latch and flip-flop cells,
// both constants, and a RAM with a write and a read port.
func ramNetlist(t *testing.T) *netlist.Netlist {
	t.Helper()
	b := netlist.NewBuilder(nil)
	clk := b.NewNet(true)
	we := b.NewNet(true)
	b.AddInput("clk", clk)
	b.AddInput("we", we)
	var addr, data [2]netlist.NetID
	for i := range addr {
		addr[i] = b.NewNet(true)
		b.AddInput("addr["+strconv.Itoa(i)+"]", addr[i])
		data[i] = b.NewNet(true)
		b.AddInput("data["+strconv.Itoa(i)+"]", data[i])
	}
	out := []netlist.NetID{b.NewNet(true), b.NewNet(true)}
	b.AddRAM(&netlist.RAM{
		Width: 2,
		Depth: 4,
		Clk:   clk,
		WritePorts: []netlist.RAMWritePort{{
			En: we, Addr: addr[:], Data: data[:],
		}},
		ReadPorts: []netlist.RAMReadPort{{
			Addr: []netlist.NetID{addr[1], addr[0]}, Out: out,
		}},
	})
	x := b.Xor(out[0], out[1])
	m := b.Mux(we, x, b.Not(b.And(out[0], data[1])))
	q := b.NewDFF(m, clk)
	l := b.NewLatch(b.Or(q, b.Const1()), we)
	b.AddOutput("q", q)
	b.AddOutput("l", l)
	b.AddOutput("zero", b.Const0())
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.RAMs) != 1 || nl.Stats().Cells == 0 {
		t.Fatalf("hand-built netlist lost its RAM or cells: %+v", nl.Stats())
	}
	return nl
}

func TestHashDigestsPinned(t *testing.T) {
	if got, want := ramNetlist(t).Hash(), "a998992b4bb263ce46dd5bb326b1f0540cf9209aca44260df89e87680d49a246"; got != want {
		t.Errorf("hand-built RAM netlist hashes to %s, pinned %s", got, want)
	}
	for _, c := range []struct{ label, want string }{
		{"IVM-Memory", "6c73f5a03d3cfa9e9a5c6a082b996f2f5711c2d00f0681e005e266636cf0360d"},
		{"RAT-Standard", "8f22eca3b3b140d78170c911b095678dccac223bbe9abb825d354a6c7644e4a3"},
	} {
		comp, err := designs.ByLabel(c.label)
		if err != nil {
			t.Fatal(err)
		}
		d, err := designs.Design(comp)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(d, comp.Top, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if got := res.Optimized.Hash(); got != c.want {
			t.Errorf("%s: optimized netlist hashes to %s, pinned %s", c.label, got, c.want)
		}
	}
}
