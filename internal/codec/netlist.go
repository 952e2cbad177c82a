package codec

import (
	"fmt"

	"repro/internal/netlist"
)

// Netlist encoding: the on-disk form is a structure-of-arrays layout.
// Cells are written column by column — one byte per type, then the
// output-net column as deltas between consecutive outputs, then each
// input/clock column as a delta from its own cell's output — because
// synthesized net IDs are assigned in lowering order, so consecutive
// outputs and a cell's pins are numerically close and the zigzag
// varints stay 1-2 bytes. RAM port vectors and port-bit lists delta
// the same way along their runs.
//
// Layout (after the one-byte structure version):
//
//	nets     uvarint           total net count
//	const0/1 varint
//	cells    uvarint count, then SoA columns:
//	           type   1 byte each
//	           out    varint delta vs previous out
//	           in0/in1/in2/clk  varint delta vs the cell's out (Nil encodes as -1 like any id)
//	rams     uvarint count; per RAM: width, depth (uvarint),
//	           clk varint, write ports {en varint, addr/data delta runs},
//	           read ports {addr/out delta runs}
//	inputs   uvarint count; per port: name, net varint delta vs previous
//	outputs  same
//
// The decoder validates counts against the remaining input before
// allocating and finishes with Netlist.Validate, so hostile bytes
// error out instead of producing a netlist that would make a
// downstream kernel index out of range.

// netlistVersion is the structure version inside the netlist payload,
// separate from the cache envelope's schema: it tracks this layout.
// Version 1 ended in a per-net name section; version 2 had none but
// named each RAM; version 3 names no RAM. An older payload decodes as
// ErrCorrupt and its entry recomputes.
const netlistVersion = 3

// maxNets caps a decoded netlist's net count. The largest paper
// netlist has under 5,000 nets; the cap bounds the per-net tables that
// validation and every downstream kernel allocate for a corrupt count.
const maxNets = 1 << 20

// maxRAMShape caps a decoded RAM's declared width and depth. Real
// macros are orders of magnitude smaller; the cap keeps a corrupt
// shape from overflowing the area/power arithmetic downstream.
const maxRAMShape = 1 << 24

// AppendNetlist appends the binary encoding of n (which must be
// non-nil) onto dst.
func AppendNetlist(dst []byte, n *netlist.Netlist) []byte {
	dst = AppendByte(dst, netlistVersion)
	dst = AppendUvarint(dst, uint64(n.Nets))
	dst = AppendVarint(dst, int64(n.Const0))
	dst = AppendVarint(dst, int64(n.Const1))

	dst = AppendUvarint(dst, uint64(len(n.Cells)))
	for i := range n.Cells {
		dst = AppendByte(dst, byte(n.Cells[i].Type))
	}
	prev := int64(0)
	for i := range n.Cells {
		out := int64(n.Cells[i].Out)
		dst = AppendVarint(dst, out-prev)
		prev = out
	}
	for pin := 0; pin < 3; pin++ {
		for i := range n.Cells {
			dst = AppendVarint(dst, int64(n.Cells[i].In[pin])-int64(n.Cells[i].Out))
		}
	}
	for i := range n.Cells {
		dst = AppendVarint(dst, int64(n.Cells[i].Clk)-int64(n.Cells[i].Out))
	}

	dst = AppendUvarint(dst, uint64(len(n.RAMs)))
	for _, r := range n.RAMs {
		dst = AppendUvarint(dst, uint64(r.Width))
		dst = AppendUvarint(dst, uint64(r.Depth))
		dst = AppendVarint(dst, int64(r.Clk))
		dst = AppendUvarint(dst, uint64(len(r.WritePorts)))
		for _, wp := range r.WritePorts {
			dst = AppendVarint(dst, int64(wp.En))
			dst = appendIDRun(dst, wp.Addr)
			dst = appendIDRun(dst, wp.Data)
		}
		dst = AppendUvarint(dst, uint64(len(r.ReadPorts)))
		for _, rp := range r.ReadPorts {
			dst = appendIDRun(dst, rp.Addr)
			dst = appendIDRun(dst, rp.Out)
		}
	}

	dst = appendPortBits(dst, n.Inputs)
	dst = appendPortBits(dst, n.Outputs)

	return dst
}

// appendIDRun encodes one net-ID vector as a count plus deltas between
// consecutive elements (bus bits are numbered consecutively, so the
// run body is mostly one byte per bit).
func appendIDRun(dst []byte, ids []netlist.NetID) []byte {
	dst = AppendUvarint(dst, uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		dst = AppendVarint(dst, int64(id)-prev)
		prev = int64(id)
	}
	return dst
}

func appendPortBits(dst []byte, ports []netlist.PortBit) []byte {
	dst = AppendUvarint(dst, uint64(len(ports)))
	prev := int64(0)
	for _, p := range ports {
		dst = AppendString(dst, p.Name)
		dst = AppendVarint(dst, int64(p.Net)-prev)
		prev = int64(p.Net)
	}
	return dst
}

// DecodeNetlist reads one netlist from r, allocating exactly one
// backing slice per table and copying every byte it keeps (the decoded
// netlist never aliases r's buffer). It errors — wrapping ErrCorrupt —
// on any malformed input, including structurally invalid netlists
// (see netlist.Netlist.Validate).
func DecodeNetlist(r *Reader) (*netlist.Netlist, error) {
	if v := r.Byte(); r.Err() == nil && v != netlistVersion {
		return nil, fmt.Errorf("%w: netlist structure version %d, want %d", ErrCorrupt, v, netlistVersion)
	}
	n := &netlist.Netlist{}
	nets := r.Uvarint()
	if r.Err() == nil && nets > maxNets {
		return nil, fmt.Errorf("%w: net count %d exceeds cap", ErrCorrupt, nets)
	}
	n.Nets = int(nets)
	n.Const0 = netlist.NetID(r.Varint())
	n.Const1 = netlist.NetID(r.Varint())

	// Each cell takes at least its type byte plus one varint per column.
	numCells := r.Count(6)
	if numCells > 0 {
		n.Cells = make([]netlist.Cell, numCells)
	}
	for i := range n.Cells {
		n.Cells[i].Type = netlist.CellType(r.Byte())
	}
	prev := int64(0)
	for i := range n.Cells {
		prev += r.Varint()
		n.Cells[i].Out = netlist.NetID(prev)
	}
	for pin := 0; pin < 3; pin++ {
		for i := range n.Cells {
			n.Cells[i].In[pin] = netlist.NetID(int64(n.Cells[i].Out) + r.Varint())
		}
	}
	for i := range n.Cells {
		n.Cells[i].Clk = netlist.NetID(int64(n.Cells[i].Out) + r.Varint())
	}

	numRAMs := r.Count(6)
	if numRAMs > 0 {
		n.RAMs = make([]*netlist.RAM, numRAMs)
	}
	for ri := range n.RAMs {
		ram := &netlist.RAM{}
		width := r.Uvarint()
		depth := r.Uvarint()
		if r.Err() == nil && (width > maxRAMShape || depth > maxRAMShape) {
			return nil, fmt.Errorf("%w: RAM shape %dx%d exceeds cap", ErrCorrupt, width, depth)
		}
		ram.Width, ram.Depth = int(width), int(depth)
		ram.Clk = netlist.NetID(r.Varint())
		numW := r.Count(3)
		if numW > 0 {
			ram.WritePorts = make([]netlist.RAMWritePort, numW)
		}
		for pi := range ram.WritePorts {
			ram.WritePorts[pi].En = netlist.NetID(r.Varint())
			ram.WritePorts[pi].Addr = decodeIDRun(r)
			ram.WritePorts[pi].Data = decodeIDRun(r)
		}
		numR := r.Count(2)
		if numR > 0 {
			ram.ReadPorts = make([]netlist.RAMReadPort, numR)
		}
		for pi := range ram.ReadPorts {
			ram.ReadPorts[pi].Addr = decodeIDRun(r)
			ram.ReadPorts[pi].Out = decodeIDRun(r)
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		n.RAMs[ri] = ram
	}

	n.Inputs = decodePortBits(r)
	n.Outputs = decodePortBits(r)

	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return n, nil
}

func decodeIDRun(r *Reader) []netlist.NetID {
	count := r.Count(1)
	if count == 0 {
		return nil
	}
	ids := make([]netlist.NetID, count)
	prev := int64(0)
	for i := range ids {
		prev += r.Varint()
		ids[i] = netlist.NetID(prev)
	}
	return ids
}

func decodePortBits(r *Reader) []netlist.PortBit {
	count := r.Count(2)
	if count == 0 {
		return nil
	}
	ports := make([]netlist.PortBit, count)
	prev := int64(0)
	for i := range ports {
		ports[i].Name = r.String()
		prev += r.Varint()
		ports[i].Net = netlist.NetID(prev)
	}
	return ports
}

// NetlistCodec is the Codec binding for *netlist.Netlist.
var NetlistCodec = Codec[*netlist.Netlist]{
	Name:   "netlist",
	Append: AppendNetlist,
	Decode: DecodeNetlist,
}
