package srcmetrics

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hdl"
)

const twoModules = `// file header comment

module a (input x, output y);
  // inverting
  assign y = ~x;
endmodule

module b (input clk, input d, output reg q);
  always @(posedge clk) begin
    q <= d;
  end
endmodule
`

// measureSource parses src and returns per-module counts plus the file
// totals, with LoC counted on the raw text: source lines that carry a
// token. LoC is attributed to modules by their source line spans; the
// file total also includes code lines outside any module.
func measureSource(file, src string) (perModule map[string]Counts, total Counts, err error) {
	sf, err := hdl.Parse(file, src)
	if err != nil {
		return nil, Counts{}, fmt.Errorf("srcmetrics: %w", err)
	}
	codeLines := map[int]bool{}
	lx := hdl.NewLexer(file, src)
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, Counts{}, err
		}
		if tok.Kind == hdl.TokEOF {
			break
		}
		codeLines[tok.Pos.Line] = true
	}
	perModule = make(map[string]Counts, len(sf.Modules))

	// Module line spans: from the module keyword's line to the line of
	// the next module minus one (the last module extends to EOF). This
	// is robust because µHDL modules cannot nest.
	lineCount := strings.Count(src, "\n") + 1
	for i, m := range sf.Modules {
		startLine := m.Pos.Line
		endLine := lineCount
		if i+1 < len(sf.Modules) {
			endLine = sf.Modules[i+1].Pos.Line - 1
		}
		loc := 0
		for line := startLine; line <= endLine; line++ {
			if codeLines[line] {
				loc++
			}
		}
		perModule[m.Name] = Counts{LoC: loc, Stmts: hdl.CountStmts(m)}
	}
	total.LoC = len(codeLines)
	for _, c := range perModule {
		total.Stmts += c.Stmts
	}
	return perModule, total, nil
}

func TestMeasureSourcePerModule(t *testing.T) {
	per, total, err := measureSource("t.v", twoModules)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := per["a"]
	if !ok {
		t.Fatal("missing module a")
	}
	// Module a: lines "module a...", "assign...", "endmodule" = 3 code
	// lines (the comment line does not count).
	if a.LoC != 3 {
		t.Errorf("a.LoC = %d, want 3", a.LoC)
	}
	if a.Stmts != 1 {
		t.Errorf("a.Stmts = %d, want 1 (one assign)", a.Stmts)
	}
	b := per["b"]
	// Module b: module, always, q<=d, end, endmodule = 5 code lines.
	if b.LoC != 5 {
		t.Errorf("b.LoC = %d, want 5", b.LoC)
	}
	// always(1) + assign(1) = 2 statements.
	if b.Stmts != 2 {
		t.Errorf("b.Stmts = %d, want 2", b.Stmts)
	}
	if total.LoC != a.LoC+b.LoC {
		t.Errorf("total.LoC = %d, want %d", total.LoC, a.LoC+b.LoC)
	}
	if total.Stmts != 3 {
		t.Errorf("total.Stmts = %d, want 3", total.Stmts)
	}
}

func TestStmtsCountDetail(t *testing.T) {
	src := `
module m #(parameter W = 4) (input [W-1:0] a, input [1:0] sel, output reg [W-1:0] y);
  localparam K = 2;
  wire [W-1:0] t;
  assign t = a ^ {W{1'b1}};
  counter u (.clk(a[0]), .q());
  always @(*) begin
    if (sel == 2'd0)
      y = a;
    else begin
      case (sel)
        2'd1: y = t;
        default: y = {W{1'b0}};
      endcase
    end
  end
endmodule`
	sf, err := hdl.Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	got := hdl.CountStmts(sf.Modules[0])
	// parameter W(1) + localparam(1) + wire(1) + assign(1) + instance(1)
	// + always(1) + if(1) + y=a(1) + case(1) + 2 case items(2) + 2 case
	// bodies(2) = 13
	if got != 13 {
		t.Errorf("Stmts = %d, want 13", got)
	}
}

func TestGenerateCounts(t *testing.T) {
	src := `
module g #(parameter N = 4) (input [N-1:0] a, output [N-1:0] y);
  genvar i;
  generate for (i = 0; i < N; i = i + 1) begin : gg
    assign y[i] = ~a[i];
  end endgenerate
endmodule`
	sf, err := hdl.Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	got := hdl.CountStmts(sf.Modules[0])
	// parameter(1) + genvar decl(1) + genfor(1) + assign(1) = 4.
	// Crucially this does NOT scale with N: the paper's Stmts metric is
	// parameter-independent (Section 5.3).
	if got != 4 {
		t.Errorf("Stmts = %d, want 4", got)
	}
}

func TestForLoopCounts(t *testing.T) {
	src := `
module f (input [7:0] a, output reg [7:0] y);
  integer i;
  always @(*) begin
    for (i = 0; i < 8; i = i + 1)
      y[i] = a[7 - i];
  end
endmodule`
	sf, err := hdl.Parse("t.v", src)
	if err != nil {
		t.Fatal(err)
	}
	got := hdl.CountStmts(sf.Modules[0])
	// integer(1) + always(1) + for(1) + body assign(1) = 4.
	if got != 4 {
		t.Errorf("Stmts = %d, want 4", got)
	}
}

func TestSumUsesFormattedSource(t *testing.T) {
	d, err := hdl.ParseDesign(map[string]string{"t.v": `module m (input a, output y); assign y = a; endmodule`})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Sum(d, []string{"m"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stmts != 1 {
		t.Errorf("Stmts = %d, want 1", c.Stmts)
	}
	// Formatted: module header, assign, endmodule = 3 non-blank lines.
	if c.LoC != 3 {
		t.Errorf("LoC = %d, want 3", c.LoC)
	}
}

func TestMeasureSourceParseError(t *testing.T) {
	if _, _, err := measureSource("t.v", "module broken"); err == nil {
		t.Fatal("expected parse error")
	}
}
