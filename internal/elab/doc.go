// Package elab elaborates parsed µHDL designs: it resolves parameters,
// evaluates constant expressions, unrolls generate loops, selects
// generate-if branches, sizes every net, and builds the hierarchical
// instance tree that internal/synth lowers to gates.
//
// Elaboration also produces a Report describing the fate of every
// parameter-sensitive construct: how many times each generate loop ran,
// which branch each constant conditional took, whether each memory is
// non-trivial. The report is the mechanism behind the paper's scaling
// rule (Section 2.2): "select for each parameter the smallest value
// that does not cause any loops or conditional statements in the RTL
// description to be optimized away by traditional program analysis
// techniques such as constant propagation and dead code elimination."
// internal/measure's accounting search lowers parameter values and
// accepts a candidate only while its report stays compatible with the
// reference parameterization's report.
package elab
