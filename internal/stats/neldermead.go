package stats

import "math"

// NelderMeadOptions configures Minimize. The zero value selects sensible
// defaults (standard reflection/expansion/contraction coefficients,
// 200·dim² iterations, 1e-10 tolerance).
type NelderMeadOptions struct {
	// MaxIter bounds the number of simplex iterations. Zero means
	// 200·dim² with a floor of 2000.
	MaxIter int
	// TolF stops the search once the simplex function-value spread
	// drops below this. Zero means 1e-10.
	TolF float64
	// TolX stops the search once the simplex diameter drops below
	// this. Zero means 1e-10.
	TolX float64
}

// MinimizeResult reports the outcome of a Nelder–Mead minimization.
type MinimizeResult struct {
	X         []float64 // best point found
	F         float64   // objective value at X
	Iters     int       // simplex iterations performed
	Evals     int       // objective evaluations performed
	Converged bool      // whether a tolerance (rather than MaxIter) stopped the search
}

// Minimize runs the Nelder–Mead downhill-simplex method on f starting
// from x0. The objective may return +Inf or NaN to mark infeasible
// points; such points are treated as the worst possible value.
//
// Nelder–Mead is derivative-free, which suits the NLME log-likelihood:
// its surface is smooth but the closed form has log-barrier-like
// behaviour near zero weights where finite-difference gradients are
// unreliable.
func Minimize(f func([]float64) float64, x0 []float64, opt NelderMeadOptions) MinimizeResult {
	dim := len(x0)
	if dim == 0 {
		panic("stats: Minimize: empty starting point")
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 200 * dim * dim
		if opt.MaxIter < 2000 {
			opt.MaxIter = 2000
		}
	}
	if opt.TolF == 0 {
		opt.TolF = 1e-10
	}
	if opt.TolX == 0 {
		opt.TolX = 1e-10
	}

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build the initial simplex: x0 plus dim displaced vertices.
	verts := make([][]float64, dim+1)
	vals := make([]float64, dim+1)
	verts[0] = append([]float64(nil), x0...)
	vals[0] = eval(verts[0])
	for i := 0; i < dim; i++ {
		v := append([]float64(nil), x0...)
		// The initial displacement is 0.1·|x0_i| with a floor of 0.1.
		v[i] += math.Max(0.1*math.Abs(x0[i]), 0.1)
		verts[i+1] = v
		vals[i+1] = eval(v)
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	order := func() {
		// Insertion sort: the simplex is nearly sorted between iterations.
		for i := 1; i <= dim; i++ {
			v, fv := verts[i], vals[i]
			j := i - 1
			for j >= 0 && vals[j] > fv {
				verts[j+1], vals[j+1] = verts[j], vals[j]
				j--
			}
			verts[j+1], vals[j+1] = v, fv
		}
	}

	centroid := make([]float64, dim)
	point := func(dst, base []float64, coef float64, dir []float64) {
		for i := range dst {
			dst[i] = base[i] + coef*(base[i]-dir[i])
		}
	}
	// Two scratch vertices, reused every iteration: when a candidate is
	// adopted into the simplex it swaps buffers with the vertex it
	// evicts, so the loop allocates nothing. The objective must not
	// retain its argument (ours evaluate and return).
	xr := make([]float64, dim)
	xc := make([]float64, dim)

	res := MinimizeResult{}
	for iter := 0; iter < opt.MaxIter; iter++ {
		order()
		res.Iters = iter + 1

		// Convergence checks on spread of values and simplex size.
		if math.Abs(vals[dim]-vals[0]) < opt.TolF {
			var diam float64
			for i := 1; i <= dim; i++ {
				for j := 0; j < dim; j++ {
					d := math.Abs(verts[i][j] - verts[0][j])
					if d > diam {
						diam = d
					}
				}
			}
			if diam < opt.TolX || math.Abs(vals[dim]-vals[0]) == 0 {
				res.Converged = true
				break
			}
		}

		// Centroid of all but the worst vertex.
		for j := 0; j < dim; j++ {
			centroid[j] = 0
		}
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				centroid[j] += verts[i][j]
			}
		}
		for j := 0; j < dim; j++ {
			centroid[j] /= float64(dim)
		}

		// Reflection.
		point(xr, centroid, alpha, verts[dim])
		fr := eval(xr)
		switch {
		case fr < vals[0]:
			// Expansion.
			point(xc, centroid, gamma, verts[dim])
			fe := eval(xc)
			if fe < fr {
				verts[dim], xc = xc, verts[dim]
				vals[dim] = fe
			} else {
				verts[dim], xr = xr, verts[dim]
				vals[dim] = fr
			}
		case fr < vals[dim-1]:
			verts[dim], xr = xr, verts[dim]
			vals[dim] = fr
		default:
			// Contraction (outside if the reflected point improved on
			// the worst, inside otherwise).
			if fr < vals[dim] {
				point(xc, centroid, alpha*rho, verts[dim])
			} else {
				point(xc, centroid, -rho, verts[dim])
			}
			fc := eval(xc)
			if fc < math.Min(fr, vals[dim]) {
				verts[dim], xc = xc, verts[dim]
				vals[dim] = fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					for j := 0; j < dim; j++ {
						verts[i][j] = verts[0][j] + sigma*(verts[i][j]-verts[0][j])
					}
					vals[i] = eval(verts[i])
				}
			}
		}
	}
	order()
	res.X = append([]float64(nil), verts[0]...)
	res.F = vals[0]
	res.Evals = evals
	if math.IsInf(res.F, 1) {
		// The search never found a feasible point; report it loudly in
		// the result rather than silently returning garbage.
		res.Converged = false
	}
	return res
}
