// Package stats provides the statistical substrate for the µComplexity
// methodology: probability distributions (normal, lognormal), descriptive
// statistics, derivative-free optimization (Nelder–Mead), and small
// dense linear algebra (Cholesky, ordinary least squares).
//
// Everything is implemented from scratch on top of the Go standard
// library; there are no external dependencies. The package is the
// foundation for internal/nlme, which fits the paper's nonlinear
// mixed-effects model, and for the confidence-interval machinery used in
// the evaluation (Figures 2, 3, and 4 of the paper).
package stats
