// Package nlme fits the nonlinear mixed-effects model of the
// µComplexity paper (Section 3.1) by maximum likelihood.
//
// # The model
//
// For component j of project i with metric vector m_ij, the estimated
// effort is
//
//	eff_ij = (1/ρ_i) · Σ_k w_k·m_ijk            (Equation 2)
//	Eff_ij = eff_ij · ε_ij                      (Equation 3)
//
// where ρ_i (the project's productivity) and ε_ij (the multiplicative
// error) are lognormal with median 1. Taking logarithms (the paper's
// Appendix A transformation) gives an additive-normal form:
//
//	log Eff_ij = b_i + log(Σ_k w_k·m_ijk) + N(0, σε²),  b_i ~ N(0, σρ²)
//
// with b_i = −log ρ_i the per-project random effect.
//
// # Fitting
//
// Because the random effect enters additively on the log scale, the
// marginal distribution of each project's log-residual vector is
// multivariate normal with compound-symmetric covariance σε²·I + σρ²·J.
// The marginal log-likelihood therefore has a closed form
// (Sherman–Morrison inverse and rank-one determinant), which this
// package maximizes over the weight ratios w_k/w_1 and the variance
// ratio λ = σρ²/σε², with σε² and the overall scale w_1 profiled out
// analytically (the scale enters the log-scale model additively, so
// its ML value is a GLS mean). This is exactly the
// ML objective that SAS PROC NLMIXED and R nlme(method="ML") maximize
// for this model, so σε, σρ, AIC, and BIC are directly comparable with
// the paper's Table 4 and Section 5.1.1.
//
// The package tests cross-check the closed form against an adaptive
// Gauss–Hermite integral over the random effect, mirroring how NLMIXED
// actually evaluates such integrals.
//
// Setting ρ_i = 1 for all i (Section 3.2) removes the random effect;
// FitFixed implements that simpler multiple-regression model for the
// comparison in the last row of Table 4.
package nlme
