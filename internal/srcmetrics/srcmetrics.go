// Package srcmetrics measures the software metrics of Table 3 of the
// µComplexity paper — LoC and Stmts — on µHDL sources.
//
// The paper does not define the two metrics beyond "number of lines in
// the HDL code" and "number of statements in the HDL code"; we pin them
// down as:
//
//   - LoC: the non-blank lines of the module's formatted declaration
//     (hdl.Format). Comments, blank lines and the original layout do
//     not count, so two sources that differ only in formatting measure
//     alike; a statement the source spreads over several lines counts
//     as the lines the printer gives it.
//   - Stmts: the number of statement-like AST nodes (hdl.CountStmts).
//     Declarations, continuous assignments, procedural assignments,
//     if, case (plus one per case item), for loops, always blocks,
//     module instantiations, and generate constructs each count as
//     one; begin/end blocks and expressions do not.
//
// Both metrics are measured on the *source* of a module, before
// elaboration, so they are independent of parameter values and
// instance counts — exactly why Section 5.3 of the paper finds that
// the accounting procedure does not change them. hdl.Parse takes both
// counts from the one Format pass that hashes each module, and
// hdl.Design.SourceCounts reports them.
package srcmetrics

import "repro/internal/hdl"

// Counts holds the software metrics of one module or module set.
type Counts struct {
	LoC   int // non-blank lines of the formatted declarations
	Stmts int // statement AST nodes (see package comment)
}

// Sum returns the counts of the named modules of d, summed: each
// module counts once, however many instances of it there are.
func Sum(d *hdl.Design, modules []string) (Counts, error) {
	var c Counts
	for _, name := range modules {
		loc, stmts, err := d.SourceCounts(name)
		if err != nil {
			return Counts{}, err
		}
		c.LoC += loc
		c.Stmts += stmts
	}
	return c, nil
}
