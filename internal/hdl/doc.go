// Package hdl implements µHDL, a synthesizable Verilog-2001-style
// hardware description language: lexer, abstract syntax tree, parser,
// and pretty-printer.
//
// The µComplexity paper measures software metrics (lines of code,
// statements) directly on HDL sources, and synthesis metrics (cells,
// nets, areas, power, flip-flops, logic-cone fan-ins, frequency) on the
// elaborated and synthesized design. This package is the front end of
// that measurement pipeline; see internal/elab for elaboration and
// internal/synth for synthesis.
//
// # Language subset
//
// µHDL supports the constructs the paper's accounting procedure cares
// about — in particular parameterized modules and generate loops, whose
// "minimal non-degenerate parameterization" is the heart of the scaling
// rule of Section 2.2:
//
//   - module/endmodule with #(parameter ...) headers and either
//     ANSI-style port lists (input/output/inout, optional reg, vector
//     ranges) or Verilog-95 non-ANSI name lists with body port
//     declarations (the dialect PUMA and IVM were written in)
//   - wire/reg/integer/genvar declarations, including memory arrays
//     (reg [W-1:0] mem [0:D-1])
//   - parameter and localparam declarations
//   - continuous assignments (assign lhs = rhs)
//   - always blocks with @(posedge/negedge ...), @(*), and explicit
//     signal sensitivity lists; blocking and nonblocking assignments;
//     if/else, case, casez with '?' wildcard labels (4'b1??0), and
//     constant-bound for loops
//   - module instantiation with named parameter and port bindings
//   - generate/endgenerate with genvar for loops and if/else blocks
//   - the usual operator set: arithmetic, bitwise, logical, relational,
//     shifts, concatenation {a,b}, replication {N{a}}, reductions,
//     bit and part selects, and the ternary conditional
//
// Unsupported (rejected at parse or synthesis time rather than silently
// mis-handled): signed arithmetic, functions/tasks, initial blocks,
// delays, events, strengths, and four-state X/Z values.
//
// # Parsed files are shared and read-only
//
// ParseDesign and ParseDesignParallel reuse the *SourceFile of a file
// whose name and text they have seen before, so one parsed file — its
// modules, every AST node under them, and the module hashes and source
// counts Parse stored — may belong to many designs, measurement
// sessions and daemon tenants at once, on many goroutines. Nothing may
// write to a SourceFile or anything reachable from it once Parse has
// returned. Code that needs a modified tree builds a new one.
package hdl
