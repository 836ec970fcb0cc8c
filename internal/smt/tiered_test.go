package smt

import (
	"math"
	"math/rand"
	"testing"
)

// buildRandomSystem asserts a random difference-dominated scheduling-shaped
// problem into s and returns the objective. Mode booleans select between
// alternative difference constraints, mirroring the encoding's overlap
// indicators; an occasional genuinely linear atom exercises the residual
// simplex tier.
func buildRandomSystem(s *Solver, rng *rand.Rand) LinExpr {
	n := 3 + rng.Intn(5)
	vars := make([]Var, n)
	obj := Const(0)
	for i := range vars {
		vars[i] = s.Real()
		s.Assert(Ge(V(vars[i]), Const(0)))
		s.Assert(Le(V(vars[i]), Const(100)))
		obj = obj.Add(Term(vars[i], float64(1+rng.Intn(4))))
	}
	nCons := 2 + rng.Intn(6)
	for k := 0; k < nCons; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		c := float64(rng.Intn(31) - 10)
		s.Assert(Le(V(vars[i]).Sub(V(vars[j])), Const(c)))
	}
	nModes := 1 + rng.Intn(3)
	for k := 0; k < nModes; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		b := s.Bool()
		gap := float64(5 + rng.Intn(20))
		// b -> x_i after x_j by gap; !b -> x_j after x_i by gap.
		s.Assert(Implies(BoolLit(b), Ge(V(vars[i]).Sub(V(vars[j])), Const(gap))))
		s.Assert(Implies(Not(BoolLit(b)), Ge(V(vars[j]).Sub(V(vars[i])), Const(gap))))
	}
	if rng.Intn(3) == 0 {
		// A residual-tier atom: a genuine multi-term combination.
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			s.Assert(Le(V(vars[i]).Add(V(vars[j])), Const(float64(60+rng.Intn(120)))))
		}
	}
	return obj
}

// oracleModes are the solver configurations the objective tier is checked
// against: the production path, the same search with every atom routed
// through the simplex (no difference tier), and with every simplex value in
// exact big.Rat (no dyadic fast path).
var oracleModes = []string{"tiered", "simplex-only", "rational"}

func newModeSolver(mode string) *Solver {
	s := NewSolver()
	switch mode {
	case "simplex-only":
		s.DisableDiffLogic()
	case "rational":
		s.DisableDyadic()
	}
	return s
}

// TestTieredDifferentialFuzz solves random difference-constraint systems on
// the production path and on the DisableDiffLogic and DisableDyadic
// oracles; all three must agree on satisfiability and, when satisfiable, on
// the minimal objective to 1e-9 (the data are small integers, so optima are
// exact vertex values, not merely within Eps).
func TestTieredDifferentialFuzz(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 50
	}
	rng := rand.New(rand.NewSource(20260728))
	for trial := 0; trial < trials; trial++ {
		seed := rng.Int63()
		type outcome struct {
			name string
			ok   bool
			obj  float64
		}
		var outs []outcome
		for _, mode := range oracleModes {
			s := newModeSolver(mode)
			obj := buildRandomSystem(s, rand.New(rand.NewSource(seed)))
			m, ok, err := s.Minimize(obj)
			if err != nil {
				t.Fatalf("trial %d (%s): Minimize error: %v", trial, mode, err)
			}
			o := outcome{name: mode, ok: ok}
			if ok {
				o.obj = m.Objective
			}
			outs = append(outs, o)
		}
		for _, o := range outs[1:] {
			if o.ok != outs[0].ok {
				t.Fatalf("trial %d: %s says sat=%v but %s says sat=%v",
					trial, outs[0].name, outs[0].ok, o.name, o.ok)
			}
			if o.ok && math.Abs(o.obj-outs[0].obj) > 1e-9 {
				t.Fatalf("trial %d: %s objective %v but %s objective %v",
					trial, outs[0].name, outs[0].obj, o.name, o.obj)
			}
		}
	}
}

// TestLazyObjectiveTierExactness: the objective tier (improvement bound
// kept out of the tableau, dual-certificate conflicts, quiescence pruning)
// reaches the exact optimum of a problem with several tightening rounds,
// equal to both oracles' to 1e-9, and it runs on the difference engine.
func TestLazyObjectiveTierExactness(t *testing.T) {
	build := func(s *Solver) LinExpr {
		obj := Const(0)
		for i := 0; i < 5; i++ {
			b := s.Bool()
			c := s.Real()
			s.Assert(Ge(V(c), Const(0)))
			s.Assert(Implies(BoolLit(b), Ge(V(c), Const(float64(20+i)))))
			s.Assert(Implies(Not(BoolLit(b)), Ge(V(c), Const(float64(2+i)))))
			// A non-dyadic weight, like the decoherence terms (1-omega)/T_q.
			obj = obj.Add(Term(c, 1+1.0/3))
		}
		return obj
	}
	want := (2.0 + 3 + 4 + 5 + 6) * (1 + 1.0/3)
	for _, mode := range oracleModes {
		s := newModeSolver(mode)
		m, ok, err := s.Minimize(build(s))
		if err != nil || !ok {
			t.Fatalf("%s Minimize: ok=%v err=%v", mode, ok, err)
		}
		if math.Abs(m.Objective-want) > 1e-9 {
			t.Fatalf("%s objective = %v, want %v", mode, m.Objective, want)
		}
		if mode != "tiered" {
			continue
		}
		ts := s.TierStats()
		if ts.DiffAtoms == 0 {
			t.Fatalf("difference tier saw no atoms: %+v", ts)
		}
		if ts.JointChecks == 0 {
			t.Fatalf("no joint complete checks ran: %+v", ts)
		}
		if ts.DiffAsserts == 0 {
			t.Fatalf("difference engine asserted no edges: %+v", ts)
		}
	}
}

// TestMinimizeCountsDeterministic: two fresh solvers on one encoding search
// identically — same pivots, conflicts and decisions. The encoding has a
// wide objective with non-dyadic weights and multi-term slacks, so a
// tableau built in map order would reorder dual cores between runs.
func TestMinimizeCountsDeterministic(t *testing.T) {
	run := func() (pivots, conflicts, decisions int64, obj float64) {
		s := NewSolver()
		rng := rand.New(rand.NewSource(7))
		n := 10
		vars := make([]Var, n)
		objE := Const(0)
		for i := range vars {
			vars[i] = s.Real()
			s.Assert(Ge(V(vars[i]), Const(0)))
			s.Assert(Le(V(vars[i]), Const(400)))
			objE = objE.Add(Term(vars[i], float64(1+rng.Intn(7))/3))
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
			if k%5 == 0 {
				s.Assert(Le(V(vars[i]).Add(V(vars[j])).Add(V(vars[(i+j)%n])), Const(float64(300+rng.Intn(300)))))
			}
		}
		m, ok, err := s.Minimize(objE)
		if err != nil || !ok {
			t.Fatalf("Minimize: ok=%v err=%v", ok, err)
		}
		d, c := s.Stats()
		return s.TierStats().Pivots, c, d, m.Objective
	}
	p1, c1, d1, o1 := run()
	for i := 0; i < 3; i++ {
		p2, c2, d2, o2 := run()
		if p1 != p2 || c1 != c2 || d1 != d2 || o1 != o2 {
			t.Fatalf("run %d drifted: pivots %d vs %d, conflicts %d vs %d, decisions %d vs %d, objective %v vs %v",
				i+2, p1, p2, c1, c2, d1, d2, o1, o2)
		}
	}
	if p1 == 0 || c1 == 0 {
		t.Fatalf("encoding too easy to show drift: pivots=%d conflicts=%d", p1, c1)
	}
}

// TestTierStatsClassification: bound and difference atoms classify into the
// difference tier, multi-term atoms into the linear tier.
func TestTierStatsClassification(t *testing.T) {
	s := NewSolver()
	x, y := s.Real(), s.Real()
	s.Assert(Ge(V(x), Const(0)))                     // bound: diff tier
	s.Assert(Le(V(x).Sub(V(y)), Const(5)))           // difference: diff tier
	s.Assert(Le(V(x).Add(V(y)), Const(9)))           // sum: linear tier
	s.Assert(Le(V(x).Scale(2).Sub(V(y)), Const(11))) // non-unit coeff: linear tier
	ts := s.TierStats()
	if ts.DiffAtoms != 2 || ts.LinAtoms != 2 {
		t.Fatalf("classification = %d diff / %d linear, want 2 / 2", ts.DiffAtoms, ts.LinAtoms)
	}
	if _, ok := s.Check(); !ok {
		t.Fatal("system is satisfiable")
	}
}

// TestDiffTierNoFalseUnsatOnRoundedChain: a precedence chain with
// fractional durations plus an upper bound equal to the float-summed total
// is exactly satisfiable, but naive float potentials see a hair-negative
// cycle. The difference engine must re-verify candidate cycles exactly and
// agree with the simplex that the system is SAT (regression: this returned
// a false UNSAT before cycle re-verification).
func TestDiffTierNoFalseUnsatOnRoundedChain(t *testing.T) {
	durs := []float64{
		194.4880269927028, 51.67922107097299, 201.24784827141326,
		924.4217317782565, 418.4938453734366, 853.8936351363948,
	}
	base := 380700.43779260304
	var total float64
	for _, d := range durs {
		total += d
	}
	for _, mode := range []string{"tiered", "simplex-only"} {
		s := NewSolver()
		if mode == "simplex-only" {
			s.DisableDiffLogic()
		}
		vars := make([]Var, len(durs)+1)
		for i := range vars {
			vars[i] = s.Real()
		}
		s.Assert(Ge(V(vars[0]), Const(base)))
		for i, d := range durs {
			s.Assert(Ge(V(vars[i+1]), V(vars[i]).AddConst(d)))
		}
		s.Assert(Le(V(vars[len(durs)]).Sub(V(vars[0])), Const(total)))
		if _, ok := s.Check(); !ok {
			t.Fatalf("%s: false UNSAT on an exactly-satisfiable rounded chain", mode)
		}
		if mode == "tiered" && s.dl.rounded == 0 {
			t.Fatal("scenario no longer exercises the rounding-artifact path (adjust constants)")
		}
	}
}

// TestDisableDiffLogicParity: with the difference tier disabled the solver
// still solves difference systems (pre-tiered behavior), so the ablation
// switch is a faithful baseline.
func TestDisableDiffLogicParity(t *testing.T) {
	s := NewSolver()
	s.DisableDiffLogic()
	x, y := s.Real(), s.Real()
	s.Assert(Ge(V(x), Const(0)))
	s.Assert(Ge(V(y), V(x).AddConst(10)))
	s.Assert(Le(V(y), Const(9)))
	if _, ok := s.Check(); ok {
		t.Fatal("expected UNSAT")
	}
	ts := s.TierStats()
	if ts.DiffAtoms != 0 {
		t.Fatalf("difference tier used while disabled: %+v", ts)
	}
}
