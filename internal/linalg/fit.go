package linalg

import (
	"errors"
	"math"
)

// ExpDecayFit holds the parameters of the randomized-benchmarking decay model
//
//	y(m) = A * alpha^m + B
//
// where m is the Clifford sequence length and alpha in (0, 1] is the depolarizing
// parameter. Error per Clifford follows as (1-alpha)*(d-1)/d for dimension d.
type ExpDecayFit struct {
	A, Alpha, B float64
	// RMSE is the root-mean-square residual of the fit.
	RMSE float64
}

// ErrBadFit is returned when the decay fit cannot be computed (e.g. too few
// points or non-decaying data).
var ErrBadFit = errors.New("linalg: cannot fit exponential decay")

// FitExpDecay fits y = A*alpha^m + B to the given points by a grid+refinement
// search over alpha with linear least squares for (A, B) at each candidate.
// This is robust for the noisy, small-sample survival curves produced by RB.
func FitExpDecay(ms []float64, ys []float64) (ExpDecayFit, error) {
	if len(ms) != len(ys) || len(ms) < 3 {
		return ExpDecayFit{}, ErrBadFit
	}
	// Near-constant data is degenerate (any alpha fits with A ~ 0); report
	// no decay rather than an arbitrary grid point.
	if StdDev(ys) < 1e-6 {
		return ExpDecayFit{A: 0, Alpha: 1, B: Mean(ys)}, nil
	}
	best := ExpDecayFit{RMSE: math.Inf(1)}
	eval := func(alpha float64) (ExpDecayFit, bool) {
		// Linear LS for A, B given alpha: y = A*x + B with x = alpha^m.
		design := NewMatrix(len(ms), 2)
		for i, m := range ms {
			design.Set(i, 0, math.Pow(alpha, m))
			design.Set(i, 1, 1)
		}
		coef, err := LeastSquares(design, ys)
		if err != nil {
			return ExpDecayFit{}, false
		}
		fit := ExpDecayFit{A: coef[0], Alpha: alpha, B: coef[1]}
		var sse float64
		for i, m := range ms {
			r := ys[i] - (fit.A*math.Pow(alpha, m) + fit.B)
			sse += r * r
		}
		fit.RMSE = math.Sqrt(sse / float64(len(ms)))
		return fit, true
	}
	// Coarse grid.
	for alpha := 0.300; alpha <= 0.9999; alpha += 0.002 {
		if fit, ok := eval(alpha); ok && fit.RMSE < best.RMSE {
			best = fit
		}
	}
	if math.IsInf(best.RMSE, 1) {
		return ExpDecayFit{}, ErrBadFit
	}
	// Refinement around the best alpha.
	lo := math.Max(1e-4, best.Alpha-0.002)
	hi := math.Min(0.99999, best.Alpha+0.002)
	for i := 0; i <= 400; i++ {
		alpha := lo + (hi-lo)*float64(i)/400
		if fit, ok := eval(alpha); ok && fit.RMSE < best.RMSE {
			best = fit
		}
	}
	return best, nil
}

// FitExpDecayFixedB fits y = A*alpha^m + B with B pinned (e.g. 0.25, the
// two-qubit RB asymptote: the maximally mixed state's survival, which
// symmetric readout flips preserve). Pinning B halves the fit's degrees of
// freedom and substantially reduces estimator variance on short, noisy
// survival curves.
func FitExpDecayFixedB(ms []float64, ys []float64, b float64) (ExpDecayFit, error) {
	if len(ms) != len(ys) || len(ms) < 2 {
		return ExpDecayFit{}, ErrBadFit
	}
	if StdDev(ys) < 1e-6 && math.Abs(Mean(ys)-b) > 0.3 {
		// Flat curve far from the asymptote: no measurable decay.
		return ExpDecayFit{A: Mean(ys) - b, Alpha: 1, B: b}, nil
	}
	best := ExpDecayFit{RMSE: math.Inf(1)}
	// xs[i] holds alpha^ms[i] for the alpha being evaluated.
	xs := make([]float64, len(ms))
	eval := func(alpha float64) (ExpDecayFit, bool) {
		// 1-parameter LS for A: minimize sum ((y-b) - A*alpha^m)^2.
		var num, den float64
		for i, m := range ms {
			x := math.Pow(alpha, m)
			xs[i] = x
			num += (ys[i] - b) * x
			den += x * x
		}
		if den == 0 {
			return ExpDecayFit{}, false
		}
		fit := ExpDecayFit{A: num / den, Alpha: alpha, B: b}
		var sse float64
		for i, x := range xs {
			r := ys[i] - (fit.A*x + b)
			sse += r * r
		}
		fit.RMSE = math.Sqrt(sse / float64(len(ms)))
		return fit, true
	}
	for alpha := 0.300; alpha <= 0.9999; alpha += 0.001 {
		if fit, ok := eval(alpha); ok && fit.RMSE < best.RMSE {
			best = fit
		}
	}
	if math.IsInf(best.RMSE, 1) {
		return ExpDecayFit{}, ErrBadFit
	}
	lo := math.Max(1e-4, best.Alpha-0.001)
	hi := math.Min(0.99999, best.Alpha+0.001)
	for i := 0; i <= 400; i++ {
		alpha := lo + (hi-lo)*float64(i)/400
		if fit, ok := eval(alpha); ok && fit.RMSE < best.RMSE {
			best = fit
		}
	}
	return best, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// GeoMean returns the geometric mean of xs; inputs must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
