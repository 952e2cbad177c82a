package designs

import (
	"testing"

	"repro/internal/elab"
	"repro/internal/sim"
	"repro/internal/synth"
)

// rtlSim elaborates a component (with optional overrides) and wraps it
// in the RTL interpreter.
func rtlSim(t *testing.T, label string, overrides map[string]int64) *sim.RTLSim {
	t.Helper()
	c, err := ByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Design(c)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := elab.ElaborateOpts(d, c.Top, overrides, elab.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRTLSim(inst)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func set(t *testing.T, r *sim.RTLSim, name string, v uint64) {
	t.Helper()
	if err := r.SetInput(name, v); err != nil {
		t.Fatal(err)
	}
}

func out(t *testing.T, r *sim.RTLSim, name string) uint64 {
	t.Helper()
	v, err := r.Output(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func step(t *testing.T, r *sim.RTLSim) {
	t.Helper()
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
}

func eval(t *testing.T, r *sim.RTLSim) {
	t.Helper()
	if err := r.Eval(); err != nil {
		t.Fatal(err)
	}
}

func TestLeon3CacheHitMissRefill(t *testing.T) {
	r := rtlSim(t, "Leon3-Cache", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Write a line, then read it back: hit.
	set(t, r, "req", 1)
	set(t, r, "we", 1)
	set(t, r, "byte_en", 0xF)
	set(t, r, "addr", 0x1234<<7|0x14) // arbitrary tag + index
	set(t, r, "wdata", 0xDEADBEEF)
	step(t, r)
	set(t, r, "we", 0)
	eval(t, r)
	if out(t, r, "hit") != 1 {
		t.Fatal("expected hit after write")
	}
	if got := out(t, r, "rdata"); got != 0xDEADBEEF {
		t.Errorf("rdata = %#x", got)
	}

	// A different tag at the same index: miss, then refill from memory.
	set(t, r, "addr", 0x9999<<7|0x14)
	eval(t, r)
	if out(t, r, "hit") != 0 {
		t.Fatal("expected miss for a different tag")
	}
	step(t, r) // IDLE -> MISS
	if out(t, r, "mem_req") != 1 {
		t.Fatal("expected memory request during miss")
	}
	set(t, r, "mem_ack", 1)
	set(t, r, "mem_data", 0xCAFE0001)
	step(t, r) // MISS -> FILL
	set(t, r, "mem_ack", 0)
	step(t, r) // FILL: line installed
	eval(t, r)
	if out(t, r, "hit") != 1 {
		t.Fatal("expected hit after refill")
	}
	if got := out(t, r, "rdata"); got != 0xCAFE0001 {
		t.Errorf("refilled rdata = %#x", got)
	}
}

func TestRATStandardRename(t *testing.T) {
	r := rtlSim(t, "RAT-Standard", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Map logical registers 3, 7 via write ports 0 and 1.
	// waddr packs 4x 5-bit addresses; wtag packs 4x 6-bit tags.
	set(t, r, "wen", 0b0011)
	set(t, r, "waddr", 3|(7<<5))
	set(t, r, "wtag", 42|(17<<6))
	step(t, r)
	set(t, r, "wen", 0)

	// Read them back through read ports 0 and 1.
	set(t, r, "raddr", 3|(7<<5))
	eval(t, r)
	rtag := out(t, r, "rtag")
	if got := rtag & 0x3F; got != 42 {
		t.Errorf("rtag[0] = %d, want 42", got)
	}
	if got := (rtag >> 6) & 0x3F; got != 17 {
		t.Errorf("rtag[1] = %d, want 17", got)
	}
}

func TestRATSlidingWindows(t *testing.T) {
	r := rtlSim(t, "RAT-Sliding", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Write logical register 20 (windowed: bit 4 set) in window 0.
	set(t, r, "wen", 0b0001)
	set(t, r, "waddr", 20)
	set(t, r, "wtag", 33)
	step(t, r)
	set(t, r, "wen", 0)
	set(t, r, "raddr", 20)
	eval(t, r)
	if got := out(t, r, "rtag") & 0x3F; got != 33 {
		t.Errorf("window 0: rtag = %d, want 33", got)
	}

	// SAVE slides the window: the same logical register now maps to a
	// different physical slot (reads whatever is there — not 33).
	set(t, r, "save", 1)
	step(t, r)
	set(t, r, "save", 0)
	if got := out(t, r, "cwp_out"); got != 1 {
		t.Fatalf("cwp = %d, want 1", got)
	}
	eval(t, r)
	if got := out(t, r, "rtag") & 0x3F; got == 33 {
		t.Error("windowed register must map elsewhere after SAVE")
	}
	// RESTORE returns to window 0 and the original mapping.
	set(t, r, "restore", 1)
	step(t, r)
	set(t, r, "restore", 0)
	eval(t, r)
	if got := out(t, r, "rtag") & 0x3F; got != 33 {
		t.Errorf("after RESTORE: rtag = %d, want 33", got)
	}
	// Global registers (below 16) are unaffected by the window.
	set(t, r, "wen", 0b0001)
	set(t, r, "waddr", 5)
	set(t, r, "wtag", 9)
	step(t, r)
	set(t, r, "wen", 0)
	set(t, r, "save", 1)
	step(t, r)
	set(t, r, "save", 0)
	set(t, r, "raddr", 5)
	eval(t, r)
	if got := out(t, r, "rtag") & 0x3F; got != 9 {
		t.Errorf("global register changed across SAVE: %d, want 9", got)
	}
}

func TestPUMAROBAllocateCompleteRetire(t *testing.T) {
	r := rtlSim(t, "PUMA-ROB", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Allocate two entries.
	eval(t, r)
	id0 := out(t, r, "id0")
	set(t, r, "alloc0", 1)
	set(t, r, "alloc1", 1)
	set(t, r, "dest0", 11)
	set(t, r, "dest1", 22)
	step(t, r)
	set(t, r, "alloc0", 0)
	set(t, r, "alloc1", 0)
	eval(t, r)
	if got := out(t, r, "occupancy"); got != 2 {
		t.Fatalf("occupancy = %d, want 2", got)
	}
	if out(t, r, "retire0") != 0 {
		t.Fatal("nothing should retire before completion")
	}

	// Complete the second first: still no retirement (in-order).
	set(t, r, "complete_valid", 1)
	set(t, r, "complete_id", id0+1)
	step(t, r)
	eval(t, r)
	if out(t, r, "retire0") != 0 {
		t.Fatal("head not complete; must not retire")
	}
	// Complete the head: both retire together (2-wide).
	set(t, r, "complete_id", id0)
	step(t, r)
	set(t, r, "complete_valid", 0)
	eval(t, r)
	if out(t, r, "retire0") != 1 || out(t, r, "retire1") != 1 {
		t.Fatalf("retire0=%d retire1=%d, want 1 1", out(t, r, "retire0"), out(t, r, "retire1"))
	}
	if out(t, r, "retire_dest0") != 11 || out(t, r, "retire_dest1") != 22 {
		t.Errorf("retire dests = %d, %d", out(t, r, "retire_dest0"), out(t, r, "retire_dest1"))
	}
	step(t, r)
	eval(t, r)
	if got := out(t, r, "occupancy"); got != 0 {
		t.Errorf("occupancy after retire = %d, want 0", got)
	}
}

func TestIVMIssueWakeupSelect(t *testing.T) {
	r := rtlSim(t, "IVM-Issue", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Allocate an instruction waiting on tags 5 and 9.
	set(t, r, "alloc_valid", 1)
	set(t, r, "alloc_src1", 5)
	set(t, r, "alloc_src2", 9)
	set(t, r, "alloc_r1", 0)
	set(t, r, "alloc_r2", 0)
	set(t, r, "alloc_inst", 0xABCD0123)
	step(t, r)
	set(t, r, "alloc_valid", 0)
	eval(t, r)
	if out(t, r, "issue_valid") != 0 {
		t.Fatal("not ready: must not issue")
	}
	// Wake source 1.
	set(t, r, "cdb_valid", 1)
	set(t, r, "cdb_tag", 5)
	step(t, r)
	eval(t, r)
	if out(t, r, "issue_valid") != 0 {
		t.Fatal("only one operand ready: must not issue")
	}
	// Wake source 2: the entry becomes ready and issues with its
	// payload.
	set(t, r, "cdb_tag", 9)
	step(t, r)
	set(t, r, "cdb_valid", 0)
	eval(t, r)
	if out(t, r, "issue_valid") != 1 {
		t.Fatal("both operands ready: must issue")
	}
	if got := out(t, r, "issue_inst"); got != 0xABCD0123 {
		t.Errorf("issue payload = %#x", got)
	}
	// The grant clears the entry.
	step(t, r)
	eval(t, r)
	if out(t, r, "issue_valid") != 0 {
		t.Error("entry must clear after issue")
	}
}

func TestIVMRenameBypass(t *testing.T) {
	r := rtlSim(t, "IVM-Rename", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Slot 0 writes r3 -> tag 7; slot 1 reads r3 in the same cycle and
	// must see the bypassed tag.
	set(t, r, "valid", 0b0001)
	set(t, r, "dst", 3) // slot 0 dest = r3
	set(t, r, "newtags", 7)
	set(t, r, "src1", uint64(3)<<5) // slot 1 src1 = r3
	eval(t, r)
	if got := (out(t, r, "psrc1") >> 6) & 0x3F; got != 7 {
		t.Errorf("bypassed psrc1[1] = %d, want 7", got)
	}
	// After the edge the mapping is architectural: a later lookup of
	// r3 through slot 0 reads the map table.
	step(t, r)
	set(t, r, "valid", 0)
	set(t, r, "src1", 3) // slot 0 src1 = r3
	eval(t, r)
	if got := out(t, r, "psrc1") & 0x3F; got != 7 {
		t.Errorf("mapped psrc1[0] = %d, want 7", got)
	}
}

func TestLeon3MMUFillAndTranslate(t *testing.T) {
	r := rtlSim(t, "Leon3-MMU", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Miss before fill.
	set(t, r, "lookup", 1)
	set(t, r, "vpn", 0x12345)
	eval(t, r)
	if out(t, r, "fault") != 1 {
		t.Fatal("empty TLB must fault")
	}
	// Fill and retranslate.
	set(t, r, "fill", 1)
	set(t, r, "fill_vpn", 0x12345)
	set(t, r, "fill_ppn", 0x6AB)
	step(t, r)
	set(t, r, "fill", 0)
	eval(t, r)
	if out(t, r, "tlb_hit") != 1 {
		t.Fatal("expected TLB hit after fill")
	}
	if got := out(t, r, "ppn"); got != 0x6AB {
		t.Errorf("ppn = %#x, want 0x6AB", got)
	}
	// Kernel-space detection reads VPN bit 19.
	set(t, r, "vpn", 1<<19)
	eval(t, r)
	if out(t, r, "kernel_space") != 1 {
		t.Error("kernel_space must follow vpn[19]")
	}
}

func TestPUMAMemoryForwarding(t *testing.T) {
	r := rtlSim(t, "PUMA-Memory", nil)
	set(t, r, "rst", 1)
	step(t, r)
	set(t, r, "rst", 0)

	// Buffer a store to base+offset.
	set(t, r, "agu_valid", 1)
	set(t, r, "agu_is_store", 1)
	set(t, r, "base", 0x1000)
	set(t, r, "offset", 0x20)
	set(t, r, "store_data", 0x55AA55AA)
	step(t, r)
	// A load from the same address forwards from the buffer.
	set(t, r, "agu_is_store", 0)
	set(t, r, "dmem_rdata", 0x11111111)
	eval(t, r)
	if out(t, r, "fwd_hit") != 1 {
		t.Fatal("expected store-to-load forwarding hit")
	}
	if got := out(t, r, "load_data"); got != 0x55AA55AA {
		t.Errorf("forwarded data = %#x", got)
	}
	// A load from a different address reads memory.
	set(t, r, "offset", 0x24)
	eval(t, r)
	if out(t, r, "fwd_hit") != 0 {
		t.Fatal("different address must miss the buffer")
	}
	if got := out(t, r, "load_data"); got != 0x11111111 {
		t.Errorf("memory data = %#x", got)
	}
}

func TestIVMExecuteLanes(t *testing.T) {
	// The execute cluster's buses are 128 bits (4 lanes × 32), beyond
	// the RTL interpreter's 64-bit nets, so this test drives the
	// synthesized gate-level netlist instead.
	c, err := ByLabel("IVM-Execute")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Design(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d, c.Top, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sim.NewGateSim(res.Optimized)
	if err != nil {
		t.Fatal(err)
	}
	// Issue an add on lane 0 and a subtract on lane 1 (lanes 0 and 1
	// occupy result bits 0-31 and 32-63, which fit a uint64 readout).
	g.SetInput("rst", 1)
	if err := g.Step(); err != nil {
		t.Fatal(err)
	}
	g.SetInput("rst", 0)
	g.SetInput("issue", 0b0011)
	g.SetInput("ops", 1<<3) // lane0 op=0 (add), lane1 op=1 (sub)
	g.SetInput("srca", 10|(50<<32))
	g.SetInput("srcb", 3|(8<<32))
	if err := g.Step(); err != nil { // operands latch
		t.Fatal(err)
	}
	g.SetInput("issue", 0)
	if err := g.Eval(); err != nil {
		t.Fatal(err)
	}
	results, err := g.Output("results")
	if err != nil {
		t.Fatal(err)
	}
	if got := results & 0xFFFFFFFF; got != 13 {
		t.Errorf("lane0 = %d, want 13", got)
	}
	if got := (results >> 32) & 0xFFFFFFFF; got != 42 {
		t.Errorf("lane1 = %d, want 42", got)
	}
	cdbValid, err := g.Output("cdb_valid")
	if err != nil {
		t.Fatal(err)
	}
	if cdbValid != 1 {
		t.Error("CDB must broadcast")
	}
	cdb, err := g.Output("cdb_data")
	if err != nil {
		t.Fatal(err)
	}
	if got := cdb & 0xFFFFFFFF; got != 13 {
		t.Errorf("CDB carries lane0 result, got %d", got)
	}
}
