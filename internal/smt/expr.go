// Package smt implements a small optimizing SMT solver for quantifier-free
// linear real arithmetic (QF_LRA) with boolean structure — the fragment the
// paper's scheduling encoding needs — standing in for Z3/νZ. It combines:
//
//   - a CDCL SAT core (two-watched literals, 1UIP clause learning, VSIDS
//     branching, Luby restarts),
//   - an incremental simplex theory solver in the style of Dutertre & de
//     Moura (SMT'06), with bound explanations for theory conflicts,
//   - lazy DPLL(T) integration (theory consistency is enforced during SAT
//     search; conflicts become learned clauses), and
//   - νZ-style objective minimization by branch and bound: within each
//     satisfying boolean assignment the objective is minimized exactly by
//     simplex, then a strictly-improving bound is asserted and the search
//     continues until UNSAT.
//
// Strict inequalities are realized by an epsilon shift (StrictEps), which is
// exact enough for the scheduling domain where all meaningful constants are
// >= 1ns apart; this trades the textbook delta-rational arithmetic for
// simplicity.
package smt

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// StrictEps is the epsilon used to realize strict inequalities: x < c is
// encoded as x <= c - StrictEps.
const StrictEps = 1e-6

// Var is a real-valued variable handle.
type Var int

// LinExpr is a linear expression over real variables: sum(coeff_i * var_i) + Const.
// The zero value is the constant 0. LinExpr values are immutable; operations
// return new expressions.
type LinExpr struct {
	terms map[Var]float64
	konst float64
}

// Const returns a constant expression.
func Const(c float64) LinExpr { return LinExpr{konst: c} }

// Term returns the expression coeff*v.
func Term(v Var, coeff float64) LinExpr {
	return LinExpr{terms: map[Var]float64{v: coeff}}
}

// V returns the expression 1*v.
func V(v Var) LinExpr { return Term(v, 1) }

// Add returns e + other.
func (e LinExpr) Add(other LinExpr) LinExpr {
	out := LinExpr{terms: map[Var]float64{}, konst: e.konst + other.konst}
	for v, c := range e.terms {
		out.terms[v] += c
	}
	for v, c := range other.terms {
		out.terms[v] += c
	}
	for v, c := range out.terms {
		if c == 0 {
			delete(out.terms, v)
		}
	}
	return out
}

// Sub returns e - other.
func (e LinExpr) Sub(other LinExpr) LinExpr { return e.Add(other.Scale(-1)) }

// Scale returns k*e.
func (e LinExpr) Scale(k float64) LinExpr {
	out := LinExpr{terms: map[Var]float64{}, konst: e.konst * k}
	if k != 0 {
		for v, c := range e.terms {
			out.terms[v] = c * k
		}
	}
	return out
}

// AddTerm returns e + coeff*v.
func (e LinExpr) AddTerm(v Var, coeff float64) LinExpr { return e.Add(Term(v, coeff)) }

// AddConst returns e + c.
func (e LinExpr) AddConst(c float64) LinExpr { return e.Add(Const(c)) }

// Constant returns the constant part of e.
func (e LinExpr) Constant() float64 { return e.konst }

// Terms returns the variable terms in deterministic (ascending Var) order.
func (e LinExpr) Terms() ([]Var, []float64) {
	vars := make([]Var, 0, len(e.terms))
	for v := range e.terms {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	coeffs := make([]float64, len(vars))
	for i, v := range vars {
		coeffs[i] = e.terms[v]
	}
	return vars, coeffs
}

// linTerm is one coeff*var term of a linear expression.
type linTerm struct {
	v Var
	c float64
}

// linTerms returns the variable terms as one slice in ascending Var order.
// Everything the solver builds from an expression (slack rows, the
// objective row) walks this order, so tableau entry order, dual cores and
// with them the search are the same on every run.
func (e LinExpr) linTerms() []linTerm {
	vars, coeffs := e.Terms()
	ts := make([]linTerm, len(vars))
	for i, v := range vars {
		ts[i] = linTerm{v: v, c: coeffs[i]}
	}
	return ts
}

// Eval evaluates e under the given assignment.
func (e LinExpr) Eval(val func(Var) float64) float64 {
	s := e.konst
	for v, c := range e.terms {
		s += c * val(v)
	}
	return s
}

// IsConst reports whether e has no variable terms.
func (e LinExpr) IsConst() bool { return len(e.terms) == 0 }

// key returns a canonical string identifying the variable part of e
// (used to intern slack variables: expressions with equal variable parts
// share one slack).
func (e LinExpr) key() string {
	vars, coeffs := e.Terms()
	var sb strings.Builder
	for i, v := range vars {
		fmt.Fprintf(&sb, "%d:%.12g;", v, coeffs[i])
	}
	return sb.String()
}

// String renders the expression for debugging.
func (e LinExpr) String() string {
	vars, coeffs := e.Terms()
	var sb strings.Builder
	for i, v := range vars {
		if i > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%.6g*x%d", coeffs[i], int(v))
	}
	if e.konst != 0 || len(vars) == 0 {
		if len(vars) > 0 {
			sb.WriteString(" + ")
		}
		fmt.Fprintf(&sb, "%.6g", e.konst)
	}
	return sb.String()
}

// Sum returns the sum of the given expressions.
func Sum(es ...LinExpr) LinExpr {
	out := LinExpr{}
	for _, e := range es {
		out = out.Add(e)
	}
	return out
}

func isFinite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
