package cones

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/designs"
	"repro/internal/gencorpus"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// The golden corpus test pins the full cone-extraction output
// (FanInLC, per-cone Leaves/Gates/Depth, cone ordering) of every
// synthetic component. The golden file was generated from the seed DFS
// implementation, which is kept below as analyzeRef; -update
// regenerates the file from analyzeRef, never from the production
// kernel. The production kernel counts leaves only, so it is checked
// cone by cone against analyzeRef on everything but Gates; the Gates
// column pins analyzeRef alone.

var updateGolden = flag.Bool("update", false, "regenerate testdata/corpus_golden.json from the reference DFS")

const goldenPath = "testdata/corpus_golden.json"

// goldenComponent is one component's pinned analysis.
type goldenComponent struct {
	Label    string `json:"label"`
	FanInLC  int    `json:"fanInLC"`
	MaxDepth int    `json:"maxDepth"`
	NumCones int    `json:"numCones"`
	// ConesFNV is an FNV-1a hash over "endpoint|leaves|gates|depth\n"
	// for every cone in output order — it pins per-cone values and
	// ordering without storing thousands of rows.
	ConesFNV uint64 `json:"conesFNV"`
	// Cones holds the full per-cone data for small components (≤ 64
	// cones), as a human-readable anchor when the hash diverges.
	Cones []Cone `json:"cones,omitempty"`
}

func conesFNV(an *Analysis) uint64 {
	h := fnv.New64a()
	for _, c := range an.Cones {
		fmt.Fprintf(h, "%s|%d|%d|%d\n", c.Endpoint, c.Leaves, c.Gates, c.Depth)
	}
	return h.Sum64()
}

func goldenOf(label string, an *Analysis) goldenComponent {
	g := goldenComponent{
		Label:    label,
		FanInLC:  an.FanInLC,
		MaxDepth: an.MaxDepth,
		NumCones: len(an.Cones),
		ConesFNV: conesFNV(an),
	}
	if len(an.Cones) <= 64 {
		g.Cones = an.Cones
	}
	return g
}

func corpusNetlists(t *testing.T) map[string]*netlist.Netlist {
	t.Helper()
	out := map[string]*netlist.Netlist{}
	for _, c := range designs.All() {
		d, err := designs.Design(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		res, err := synth.Synthesize(d, c.Top, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Label(), err)
		}
		out[c.Label()] = res.Optimized
	}
	return out
}

// generatedNetlists synthesizes the first n components of a seeded
// generated corpus, keyed by top module name.
func generatedNetlists(t *testing.T, n int) map[string]*netlist.Netlist {
	t.Helper()
	corpus, err := gencorpus.Generate(gencorpus.Config{Components: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d, err := corpus.Design(0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*netlist.Netlist{}
	for _, c := range corpus.Components {
		res, err := synth.Synthesize(d, c.Top, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Top, err)
		}
		out[c.Top] = res.Optimized
	}
	return out
}

// sameAsRef reports every way the production kernel's analysis differs
// from the reference DFS's, in everything but the per-cone gate count
// the kernel does not compute.
func sameAsRef(t *testing.T, label string, got, want *Analysis) {
	t.Helper()
	if got.FanInLC != want.FanInLC || got.MaxDepth != want.MaxDepth {
		t.Errorf("%s: totals (FanInLC=%d MaxDepth=%d), reference (FanInLC=%d MaxDepth=%d)",
			label, got.FanInLC, got.MaxDepth, want.FanInLC, want.MaxDepth)
	}
	if len(got.Cones) != len(want.Cones) {
		t.Errorf("%s: %d cones, reference %d", label, len(got.Cones), len(want.Cones))
		return
	}
	for i, g := range got.Cones {
		w := want.Cones[i]
		if g.Endpoint != w.Endpoint || g.Leaves != w.Leaves || g.Depth != w.Depth {
			t.Errorf("%s: cone %d = %s leaves=%d depth=%d, reference %s leaves=%d depth=%d",
				label, i, g.Endpoint, g.Leaves, g.Depth, w.Endpoint, w.Leaves, w.Depth)
		}
	}
}

// TestGoldenCorpus checks the reference DFS against the pinned golden
// values, and the production kernel against the reference DFS, on
// every corpus component.
func TestGoldenCorpus(t *testing.T) {
	nls := corpusNetlists(t)

	if *updateGolden {
		var gs []goldenComponent
		labels := make([]string, 0, len(nls))
		for l := range nls {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		for _, l := range labels {
			gs = append(gs, goldenOf(l, analyzeRef(nls[l])))
		}
		data, err := json.MarshalIndent(gs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d components)", goldenPath, len(gs))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	var gs []goldenComponent
	if err := json.Unmarshal(data, &gs); err != nil {
		t.Fatal(err)
	}
	if len(gs) != len(nls) {
		t.Fatalf("golden has %d components, corpus has %d", len(gs), len(nls))
	}
	for _, g := range gs {
		nl, ok := nls[g.Label]
		if !ok {
			t.Errorf("golden component %s no longer in corpus", g.Label)
			continue
		}
		ref := analyzeRef(nl)
		sameAsRef(t, g.Label, Analyze(nl), ref)
		got := goldenOf(g.Label, ref)
		if got.FanInLC != g.FanInLC {
			t.Errorf("%s: FanInLC = %d, golden %d", g.Label, got.FanInLC, g.FanInLC)
		}
		if got.MaxDepth != g.MaxDepth {
			t.Errorf("%s: MaxDepth = %d, golden %d", g.Label, got.MaxDepth, g.MaxDepth)
		}
		if got.NumCones != g.NumCones {
			t.Errorf("%s: cones = %d, golden %d", g.Label, got.NumCones, g.NumCones)
		}
		if got.ConesFNV != g.ConesFNV {
			t.Errorf("%s: cone-list hash %#x, golden %#x (per-cone values or ordering changed)", g.Label, got.ConesFNV, g.ConesFNV)
		}
		if g.Cones != nil && !reflect.DeepEqual(got.Cones, g.Cones) {
			t.Errorf("%s: cone list diverged from golden:\n got %+v\nwant %+v", g.Label, got.Cones, g.Cones)
		}
	}
}

// TestAnalyzeMatchesReferenceDFS diffs the production kernel against
// the seed DFS implementation cone by cone on a 50-component generated
// corpus, whose shared library blocks and wide datapaths reconverge
// through many more memoized nets than the paper corpus.
func TestAnalyzeMatchesReferenceDFS(t *testing.T) {
	for top, nl := range generatedNetlists(t, 50) {
		sameAsRef(t, top, Analyze(nl), analyzeRef(nl))
	}
}

// Cone describes one extracted logic cone.
type Cone struct {
	// Endpoint identifies the cone's root: "out:<name>" for a primary
	// output bit, "ff:<i>:<pin>" for a sequential cell input, or
	// "ram:<name>:<pin>" for a RAM input pin.
	Endpoint string
	// Leaves is the number of distinct cone leaves (primary inputs and
	// sequential/RAM outputs) feeding the endpoint.
	Leaves int
	// Gates is the number of combinational cells inside the cone
	// (analyzeRef only; the production kernel leaves it zero).
	Gates int
	// Depth is the longest gate chain from any leaf to the endpoint.
	Depth int
}

// Analysis is the result of cone extraction over a netlist.
type Analysis struct {
	Cones []Cone
	// FanInLC is the sum of Leaves over all cones (the paper's
	// metric).
	FanInLC int
	// MaxDepth is the deepest cone.
	MaxDepth int
}

// Analyze is the per-cone form of AnalyzeSummary: it runs the
// production traversal kernel over the same endpoints and keeps one
// record per cone, sorted by endpoint, so the tests can diff the
// kernel cone by cone against analyzeRef.
func Analyze(n *netlist.Netlist) *Analysis {
	a := newAnalyzer(n, &Workspace{})
	analysis := &Analysis{}

	cone := func(endpoint string, root netlist.NetID) {
		if root == netlist.Nil {
			return
		}
		c := Cone{
			Endpoint: endpoint,
			Leaves:   a.collect(root),
			Depth:    int(a.depthOf(root)),
		}
		analysis.Cones = append(analysis.Cones, c)
		analysis.FanInLC += c.Leaves
		if c.Depth > analysis.MaxDepth {
			analysis.MaxDepth = c.Depth
		}
	}

	for _, p := range n.Outputs {
		cone("out:"+p.Name, p.Net)
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		switch c.Type {
		case netlist.DFF:
			cone(key("ff", ci, "d"), c.In[0])
		case netlist.Latch:
			cone(key("lat", ci, "d"), c.In[0])
			cone(key("lat", ci, "en"), c.In[1])
		}
	}
	for ri, r := range n.RAMs {
		for wi, wp := range r.WritePorts {
			cone(key2("ram", itoa(ri), "wen", wi), wp.En)
			for i, b := range wp.Addr {
				cone(key2("ram", itoa(ri), itoa(wi)+".waddr", i), b)
			}
			for i, b := range wp.Data {
				cone(key2("ram", itoa(ri), itoa(wi)+".wdata", i), b)
			}
		}
		for pi, rp := range r.ReadPorts {
			for i, b := range rp.Addr {
				cone(key2("ram", itoa(ri), itoa(pi)+".raddr", i), b)
			}
		}
	}
	sort.Slice(analysis.Cones, func(i, j int) bool {
		return analysis.Cones[i].Endpoint < analysis.Cones[j].Endpoint
	})
	return analysis
}

// analyzeRef is the seed map-based DFS implementation of Analyze, kept
// verbatim as the executable specification the optimized kernel is
// tested against.
func analyzeRef(n *netlist.Netlist) *Analysis {
	drivers := refDrivers(n)

	isLeaf := func(id netlist.NetID) bool {
		if id == n.Const0 || id == n.Const1 {
			return false
		}
		d := drivers[id]
		return d < 0 || n.Cells[d].Type.IsSequential()
	}

	depthMemo := make([]int, n.NumNets())
	for i := range depthMemo {
		depthMemo[i] = -1
	}
	var netDepth func(id netlist.NetID) int
	netDepth = func(id netlist.NetID) int {
		if isLeaf(id) || id == n.Const0 || id == n.Const1 {
			return 0
		}
		if depthMemo[id] >= 0 {
			return depthMemo[id]
		}
		d := drivers[id]
		if d < 0 {
			return 0
		}
		max := 0
		for _, in := range n.Cells[d].Inputs() {
			if dep := netDepth(in); dep > max {
				max = dep
			}
		}
		depthMemo[id] = max + 1
		return max + 1
	}

	analysis := &Analysis{}
	cone := func(endpoint string, root netlist.NetID) {
		if root == netlist.Nil {
			return
		}
		leaves := map[netlist.NetID]bool{}
		gates := map[int]bool{}
		var visit func(id netlist.NetID)
		visited := map[netlist.NetID]bool{}
		visit = func(id netlist.NetID) {
			if visited[id] || id == n.Const0 || id == n.Const1 {
				return
			}
			visited[id] = true
			if isLeaf(id) {
				leaves[id] = true
				return
			}
			d := drivers[id]
			if d < 0 {
				return
			}
			gates[d] = true
			for _, in := range n.Cells[d].Inputs() {
				visit(in)
			}
		}
		visit(root)
		c := Cone{
			Endpoint: endpoint,
			Leaves:   len(leaves),
			Gates:    len(gates),
			Depth:    netDepth(root),
		}
		analysis.Cones = append(analysis.Cones, c)
		analysis.FanInLC += c.Leaves
		if c.Depth > analysis.MaxDepth {
			analysis.MaxDepth = c.Depth
		}
	}

	for _, p := range n.Outputs {
		cone("out:"+p.Name, p.Net)
	}
	for ci := range n.Cells {
		c := &n.Cells[ci]
		switch c.Type {
		case netlist.DFF:
			cone(key("ff", ci, "d"), c.In[0])
		case netlist.Latch:
			cone(key("lat", ci, "d"), c.In[0])
			cone(key("lat", ci, "en"), c.In[1])
		}
	}
	for ri, r := range n.RAMs {
		for wi, wp := range r.WritePorts {
			cone(key2("ram", itoa(ri), "wen", wi), wp.En)
			for i, b := range wp.Addr {
				cone(key2("ram", itoa(ri), itoa(wi)+".waddr", i), b)
			}
			for i, b := range wp.Data {
				cone(key2("ram", itoa(ri), itoa(wi)+".wdata", i), b)
			}
		}
		for pi, rp := range r.ReadPorts {
			for i, b := range rp.Addr {
				cone(key2("ram", itoa(ri), itoa(pi)+".raddr", i), b)
			}
		}
	}
	sort.Slice(analysis.Cones, func(i, j int) bool {
		return analysis.Cones[i].Endpoint < analysis.Cones[j].Endpoint
	})
	return analysis
}

// refDrivers recomputes the driver table the way the seed did, keeping
// the reference self-contained even if Netlist.Drivers changes.
func refDrivers(n *netlist.Netlist) []int {
	d := make([]int, n.NumNets())
	for i := range d {
		d[i] = -1
	}
	for i := range n.Cells {
		d[n.Cells[i].Out] = i
	}
	return d
}

func key(kind string, cell int, pin string) string {
	return kind + ":" + itoa(cell) + ":" + pin
}

func key2(kind, name, pin string, bit int) string {
	return kind + ":" + name + ":" + pin + "[" + itoa(bit) + "]"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
