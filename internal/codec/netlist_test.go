package codec_test

import (
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/designs"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// equalNetlists reports the first difference between two netlists.
func equalNetlists(t *testing.T, a, b *netlist.Netlist) {
	t.Helper()
	if a.Hash() != b.Hash() {
		t.Fatal("structural hash differs")
	}
	if a.Nets != b.Nets || a.Const0 != b.Const0 || a.Const1 != b.Const1 {
		t.Fatalf("header differs: nets %d/%d consts %d,%d/%d,%d",
			a.Nets, b.Nets, a.Const0, a.Const1, b.Const0, b.Const1)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell count %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Fatalf("cell %d: %+v vs %+v", i, a.Cells[i], b.Cells[i])
		}
	}
	if len(a.RAMs) != len(b.RAMs) {
		t.Fatalf("RAM count %d vs %d", len(a.RAMs), len(b.RAMs))
	}
	for i := range a.RAMs {
		x, y := a.RAMs[i], b.RAMs[i]
		if x.Width != y.Width || x.Depth != y.Depth || x.Clk != y.Clk ||
			len(x.WritePorts) != len(y.WritePorts) || len(x.ReadPorts) != len(y.ReadPorts) {
			t.Fatalf("RAM %d shape differs", i)
		}
	}
}

// TestNetlistRoundtripCorpus is the round-trip property test over the
// full 18-component corpus: decode(encode(x)) must reproduce every
// field and preserve the structural hash the cache keys derivatives
// by.
func TestNetlistRoundtripCorpus(t *testing.T) {
	for _, c := range designs.All() {
		c := c
		t.Run(c.Label(), func(t *testing.T) {
			d, err := designs.Design(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := synth.Synthesize(d, c.Top, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, nl := range []*netlist.Netlist{res.Raw, res.Optimized} {
				buf := codec.AppendNetlist(nil, nl)
				r := codec.NewReader(buf)
				got, err := codec.DecodeNetlist(r)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Finish(); err != nil {
					t.Fatal(err)
				}
				equalNetlists(t, nl, got)

				// Re-encoding the decoded netlist must be byte-stable:
				// the encoder is canonical, so one logical netlist has
				// exactly one encoding.
				buf2 := codec.AppendNetlist(nil, got)
				if string(buf) != string(buf2) {
					t.Error("re-encode of decoded netlist differs")
				}
			}
		})
	}
}

// TestDecodeNetlistRejectsStructuralDamage mutates real encodings in
// ways the primitive layer cannot catch (valid varints, wrong
// semantics) and checks the structural validation rejects them.
func TestDecodeNetlistRejectsStructuralDamage(t *testing.T) {
	d, err := designs.Design(mustComponent(t, "RAT-Standard"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, "rat_standard", nil)
	if err != nil {
		t.Fatal(err)
	}
	good := codec.AppendNetlist(nil, res.Optimized)

	decode := func(buf []byte) error {
		r := codec.NewReader(buf)
		_, err := codec.DecodeNetlist(r)
		if err == nil {
			err = r.Finish()
		}
		return err
	}
	if err := decode(good); err != nil {
		t.Fatalf("pristine encoding rejected: %v", err)
	}

	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(good); cut += 97 {
		if err := decode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}

	// A wrong structure version byte, and version 2's, whose RAMs
	// carried names.
	for _, v := range []byte{99, 2} {
		bad := append([]byte{}, good...)
		bad[0] = v
		if err := decode(bad); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("structure version %d: error %v, want ErrCorrupt", v, err)
		}
	}

	// Version 1 ended in a per-net name section. Its payloads, with or
	// without names, must read as corrupt (so the entry recomputes),
	// never as a version-2 netlist with trailing bytes ignored.
	names := make([]string, res.Optimized.Nets)
	names[0], names[1] = "const0", "const1"
	for _, v1 := range [][]byte{
		appendV1Names(good, names),
		appendV1Names(good, nil),
	} {
		if err := decode(v1); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("version-1 payload: error %v, want ErrCorrupt", err)
		}
	}
}

// TestDecodeNetlistRejectsBadDrivers pins that a payload well formed
// byte for byte but describing a netlist no builder makes — a net with
// two drivers among the cells, RAM read ports and input ports, a
// combinational cycle, a net count past the cap — reads as corrupt, so
// its entry recomputes. The unmodified seed, which the fuzzer starts
// from, must decode clean.
func TestDecodeNetlistRejectsBadDrivers(t *testing.T) {
	if _, err := codec.DecodeNetlist(codec.NewReader(codec.AppendNetlist(nil, seedNetlist()))); err != nil {
		t.Fatalf("seed netlist: %v", err)
	}
	multi := seedNetlist()
	multi.Cells[2].Out = 5 // the inverter now also drives the AND's output
	cellRAM := seedNetlist()
	cellRAM.RAMs[0].ReadPorts[0].Out[1] = 7 // the RAM read port also drives the inverter's output
	ramRAM := seedNetlist()
	ramRAM.RAMs[0].ReadPorts = append(ramRAM.RAMs[0].ReadPorts, netlist.RAMReadPort{Addr: []netlist.NetID{3}, Out: []netlist.NetID{8}})
	ramInput := seedNetlist()
	ramInput.RAMs[0].ReadPorts[0].Out[0] = 3 // the RAM read port also drives input a
	inputs := seedNetlist()
	inputs.Inputs[2].Net = 3 // inputs a and b drive one net
	cyclic := seedNetlist()
	cyclic.Cells[0].In[1] = 7 // AND reads the inverter ...
	cyclic.Cells[2].In[0] = 5 // ... which reads the AND
	huge := seedNetlist()
	huge.Nets = 1<<20 + 1
	for name, nl := range map[string]*netlist.Netlist{
		"multiply driven":    multi,
		"cell and RAM read":  cellRAM,
		"two RAM read ports": ramRAM,
		"RAM read and input": ramInput,
		"two inputs":         inputs,
		"cyclic":             cyclic,
		"net count":          huge,
	} {
		_, err := codec.DecodeNetlist(codec.NewReader(codec.AppendNetlist(nil, nl)))
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
	}
}

// appendV1Names rewrites a current encoding into the version-1 layout:
// version byte 1 and, at the end, the name section (flag byte; when
// set, one uvarint length per net, then the packed bytes).
func appendV1Names(enc []byte, names []string) []byte {
	out := append([]byte{1}, enc[1:]...)
	if names == nil {
		return append(out, 0)
	}
	out = append(out, 1)
	var data []byte
	for _, s := range names {
		out = codec.AppendUvarint(out, uint64(len(s)))
		data = append(data, s...)
	}
	out = codec.AppendUvarint(out, uint64(len(data)))
	return append(out, data...)
}

func mustComponent(t *testing.T, label string) designs.Component {
	t.Helper()
	c, err := designs.ByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// seedNetlist hand-builds a small netlist exercising every encoder
// feature (cells of several types, a RAM with both port kinds, top
// ports) — kept tiny so fuzz execs stay fast.
func seedNetlist() *netlist.Netlist {
	n := &netlist.Netlist{Nets: 10, Const0: 0, Const1: 1}
	clk, a, b := netlist.NetID(2), netlist.NetID(3), netlist.NetID(4)
	n.Cells = []netlist.Cell{
		{Type: netlist.And2, In: [3]netlist.NetID{a, b, netlist.Nil}, Clk: netlist.Nil, Out: 5},
		{Type: netlist.DFF, In: [3]netlist.NetID{5, netlist.Nil, netlist.Nil}, Clk: clk, Out: 6},
		{Type: netlist.Inv, In: [3]netlist.NetID{6, netlist.Nil, netlist.Nil}, Clk: netlist.Nil, Out: 7},
	}
	n.RAMs = []*netlist.RAM{{
		Width: 2, Depth: 2, Clk: clk,
		WritePorts: []netlist.RAMWritePort{{En: a, Addr: []netlist.NetID{b}, Data: []netlist.NetID{5, 6}}},
		ReadPorts:  []netlist.RAMReadPort{{Addr: []netlist.NetID{b}, Out: []netlist.NetID{8, 9}}},
	}}
	n.Inputs = []netlist.PortBit{{Name: "clk", Net: clk}, {Name: "a", Net: a}, {Name: "b", Net: b}}
	n.Outputs = []netlist.PortBit{{Name: "q", Net: 7}, {Name: "r", Net: 8}}
	return n
}

// FuzzDecodeNetlist feeds arbitrary bytes through the netlist decoder.
// The contract: error or a Validate-clean netlist, never a panic, never
// an out-of-range net ID that would crash a downstream kernel — and a
// successful decode must re-encode/re-decode to the same structure.
func FuzzDecodeNetlist(f *testing.F) {
	seed := codec.AppendNetlist(nil, seedNetlist())
	f.Add(seed)
	f.Add(appendV1Names(seed, []string{"0", "1", "clk", "a", "b", "and", "ff", ""}))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := codec.NewReader(data)
		nl, err := codec.DecodeNetlist(r)
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Errorf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if err := nl.Validate(); err != nil {
			t.Errorf("decoder returned an invalid netlist: %v", err)
		}
		buf := codec.AppendNetlist(nil, nl)
		again, err := codec.DecodeNetlist(codec.NewReader(buf))
		if err != nil {
			t.Errorf("re-decode of re-encoded netlist failed: %v", err)
			return
		}
		if again.Hash() != nl.Hash() {
			t.Error("hash changed across re-encode")
		}
	})
}
