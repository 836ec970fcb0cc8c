package smt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Direct tests of the rational simplex through the Solver API, plus
// randomized LP cross-checks against a dense reference implementation.

func TestSimplexIllConditionedCoefficients(t *testing.T) {
	// The failure mode that motivated exact arithmetic: tiny 1/T-style
	// coefficients (1e-5) mixed with ns-scale times (1e4) in one
	// constraint. Feasibility and optimum must be exact.
	s := NewSolver()
	tau, life := s.Real(), s.Real()
	s.Assert(Ge(V(tau), Const(0)))
	s.Assert(Le(V(tau), Const(20000)))
	s.Assert(Ge(V(life), V(tau).Scale(1.8e-5)))
	s.Assert(Ge(V(life), Const(0)))
	m, ok, err := s.Minimize(V(life).Add(V(tau).Scale(1e-9)))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m.Real(tau) > 1e-3 || m.Real(life) > 1e-6 {
		t.Fatalf("optimum should pin both to 0: tau=%v life=%v", m.Real(tau), m.Real(life))
	}
}

func TestSimplexManyEqualities(t *testing.T) {
	// Chains of equalities (the measurement-alignment constraints).
	s := NewSolver()
	n := 12
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = s.Real()
		if i > 0 {
			s.Assert(Eq(V(vars[i]), V(vars[i-1])))
		}
	}
	s.Assert(Ge(V(vars[0]), Const(42)))
	m, ok, err := s.Minimize(V(vars[n-1]))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	for i := range vars {
		if math.Abs(m.Real(vars[i])-42) > 1e-6 {
			t.Fatalf("var %d = %v, want 42", i, m.Real(vars[i]))
		}
	}
}

func TestSimplexDegenerateTies(t *testing.T) {
	// Many constraints active at the same vertex (degeneracy stress).
	s := NewSolver()
	x, y := s.Real(), s.Real()
	s.Assert(Ge(V(x), Const(1)))
	s.Assert(Ge(V(y), Const(1)))
	s.Assert(Ge(V(x).Add(V(y)), Const(2)))
	s.Assert(Ge(V(x).Scale(2).Add(V(y)), Const(3)))
	s.Assert(Ge(V(x).Add(V(y).Scale(2)), Const(3)))
	m, ok, err := s.Minimize(V(x).Add(V(y)))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if math.Abs(m.Objective-2) > 1e-6 {
		t.Fatalf("objective %v, want 2", m.Objective)
	}
}

// referenceLPMin solves min c.x s.t. constraints (each: sum a_i x_i >= b)
// and x in [0, ub] by brute-force vertex enumeration over constraint
// boundaries in 2D. Only used as an oracle for 2-variable random LPs.
func referenceLPMin(a [][3]float64, ub float64, c [2]float64) (float64, bool) {
	// Candidate vertices: intersections of all boundary pairs (including
	// box edges), filtered for feasibility.
	type line struct{ p, q, r float64 } // p*x + q*y = r
	var lines []line
	for _, row := range a {
		lines = append(lines, line{row[0], row[1], row[2]})
	}
	lines = append(lines,
		line{1, 0, 0}, line{0, 1, 0}, line{1, 0, ub}, line{0, 1, ub})
	feasible := func(x, y float64) bool {
		if x < -1e-9 || y < -1e-9 || x > ub+1e-9 || y > ub+1e-9 {
			return false
		}
		for _, row := range a {
			if row[0]*x+row[1]*y < row[2]-1e-9 {
				return false
			}
		}
		return true
	}
	best := math.Inf(1)
	found := false
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			d := lines[i].p*lines[j].q - lines[j].p*lines[i].q
			if math.Abs(d) < 1e-12 {
				continue
			}
			x := (lines[i].r*lines[j].q - lines[j].r*lines[i].q) / d
			y := (lines[i].p*lines[j].r - lines[j].p*lines[i].r) / d
			if feasible(x, y) {
				v := c[0]*x + c[1]*y
				if v < best {
					best, found = v, true
				}
			}
		}
	}
	return best, found
}

func TestRandomLPsAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		const ub = 10.0
		nCons := 1 + rng.Intn(4)
		var cons [][3]float64
		for i := 0; i < nCons; i++ {
			cons = append(cons, [3]float64{
				float64(rng.Intn(7) - 3),
				float64(rng.Intn(7) - 3),
				float64(rng.Intn(9) - 2),
			})
		}
		obj := [2]float64{float64(1 + rng.Intn(5)), float64(1 + rng.Intn(5))}

		want, feasible := referenceLPMin(cons, ub, obj)

		s := NewSolver()
		x, y := s.Real(), s.Real()
		for _, v := range []Var{x, y} {
			s.Assert(Ge(V(v), Const(0)))
			s.Assert(Le(V(v), Const(ub)))
		}
		for _, row := range cons {
			s.Assert(Ge(Term(x, row[0]).Add(Term(y, row[1])), Const(row[2])))
		}
		m, ok, err := s.Minimize(Term(x, obj[0]).Add(Term(y, obj[1])))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ok != feasible {
			t.Fatalf("trial %d: solver sat=%v oracle=%v (cons=%v)", trial, ok, feasible, cons)
		}
		if ok && math.Abs(m.Objective-want) > 1e-4 {
			t.Fatalf("trial %d: objective %v, oracle %v (cons=%v obj=%v)", trial, m.Objective, want, cons, obj)
		}
	}
}

func TestDeadlineReturnsIncumbent(t *testing.T) {
	// A problem with many boolean cells: the deadline should still yield
	// some valid incumbent.
	s := NewSolver()
	x := s.Real()
	s.Assert(Ge(V(x), Const(0)))
	s.Assert(Le(V(x), Const(1000)))
	for i := 0; i < 12; i++ {
		b := s.Bool()
		s.Assert(Implies(BoolLit(b), Ge(V(x), Const(float64(i)))))
		s.Assert(Implies(Not(BoolLit(b)), Ge(V(x), Const(float64(i)/2))))
	}
	m, ok, err := s.Minimize(V(x), MinimizeOpts{Deadline: 2e9})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if m.Real(x) < 5.5-1e-6 {
		// All-false still forces x >= 11/2 = 5.5.
		t.Fatalf("x = %v below the all-false floor", m.Real(x))
	}
}

func TestStrictChainsProperty(t *testing.T) {
	// x1 < x2 < ... < xn with xn <= n must be SAT; with xn <= tiny gap
	// times n it must stay SAT too (strictness uses a fixed epsilon).
	check := func(nRaw uint8) bool {
		n := 2 + int(nRaw%6)
		s := NewSolver()
		vars := make([]Var, n)
		for i := range vars {
			vars[i] = s.Real()
			s.Assert(Ge(V(vars[i]), Const(0)))
		}
		for i := 1; i < n; i++ {
			s.Assert(Lt(V(vars[i-1]), V(vars[i])))
		}
		s.Assert(Le(V(vars[n-1]), Const(float64(n))))
		m, ok := s.Check()
		if !ok {
			return false
		}
		for i := 1; i < n; i++ {
			if m.Real(vars[i]) <= m.Real(vars[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSuspectsCoverViolations runs random scheduling-shaped encodings with
// strict invariant checks, one of which is that every basic variable
// violating a bound is a suspect: check's least violated suspect is then
// the least violated basic variable, the pivot a full scan would pick.
func TestSuspectsCoverViolations(t *testing.T) {
	// The entering variable can overshoot its own bound: fixing s = x + y
	// >= 5 first moves x, the least index, to 5 above its bound 1, and x
	// must then be fixed as a violated basic variable.
	sx := newSimplex(nil)
	sx.debugStrict = true
	x, y := sx.addVar(), sx.addVar()
	sum := sx.defineSlack([]linTerm{{Var(x), 1}, {Var(y), 1}})
	for _, b := range []struct {
		v     int
		lower bool
		c     float64
	}{{x, true, 0}, {x, false, 1}, {y, true, 0}, {y, false, 10}, {sum, true, 5}} {
		assert := sx.assertUpper
		if b.lower {
			assert = sx.assertLower
		}
		if _, ok := assert(b.v, b.c, -1); !ok {
			t.Fatalf("bound on %d rejected", b.v)
		}
	}
	if _, ok := sx.check(); !ok {
		t.Fatal("x + y >= 5 with x <= 1, y <= 10 reported infeasible")
	}
	if sx.value(x) != 1 || sx.value(y) != 4 {
		t.Fatalf("x = %v, y = %v, want 1 and 4", sx.value(x), sx.value(y))
	}
	if sx.pivots != 2 {
		t.Fatalf("%d pivots, want 2", sx.pivots)
	}

	for seed := int64(1); seed <= 6; seed++ {
		s := NewSolver()
		s.EnableDebugStrict()
		rng := rand.New(rand.NewSource(seed))
		n := 8
		vars := make([]Var, n)
		obj := Const(0)
		for i := range vars {
			vars[i] = s.Real()
			// Nonzero lower bounds make check clamp nonbasic variables,
			// which moves every row that mentions them.
			s.Assert(Ge(V(vars[i]), Const(float64(rng.Intn(60)))))
			s.Assert(Le(V(vars[i]), Const(300)))
			obj = obj.Add(Term(vars[i], float64(1+rng.Intn(5))))
		}
		for k := 0; k < 2*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			b := s.Bool()
			gap := float64(5 + rng.Intn(40))
			s.Assert(Implies(BoolLit(b), Ge(V(vars[i]).Sub(V(vars[j])), Const(gap))))
			s.Assert(Implies(Not(BoolLit(b)), Ge(V(vars[j]).Sub(V(vars[i])), Const(gap))))
			if k%4 == 0 {
				s.Assert(Le(V(vars[i]).Add(V(vars[j])).Add(V(vars[(i+j)%n])), Const(float64(200+rng.Intn(300)))))
			}
		}
		if _, _, err := s.Minimize(obj); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
