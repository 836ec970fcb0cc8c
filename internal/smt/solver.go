package smt

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"time"
)

// Solver is an optimizing SMT solver for QF_LRA with boolean structure.
// Typical use:
//
//	s := smt.NewSolver()
//	t0, t1 := s.Real(), s.Real()
//	s.Assert(smt.Ge(smt.V(t0), smt.Const(0)))
//	s.Assert(smt.Ge(smt.V(t1), smt.V(t0).AddConst(100)))
//	model, ok, err := s.Minimize(smt.V(t1))
type Solver struct {
	sx  *simplex
	dl  *diffLogic
	sat *satSolver

	realVars []Var

	// Atom interning: one SAT variable per distinct (slack, k, strict) atom;
	// one slack per distinct linear-combination key. One- and two-term
	// expressions — the overwhelming majority — intern through the
	// struct-keyed pair map; longer combinations (objective rows,
	// sum-composition sums) fall back to the canonical string key.
	atomBySig   map[atomKey]int
	atomOfVar   map[int]atomRec
	slackByPair map[pairKey]int
	slackByKey  map[string]int

	boolSatVar map[BoolV]int
	nBools     int

	trueVar int // SAT variable pinned true, used to encode constants

	// diffOff disables the difference-logic tier, forcing every atom through
	// the rational simplex (the pre-tiered behavior). Ablation/test-only;
	// set before the first Assert.
	diffOff bool
	// residualDirty is set when a linear-tier bound was installed since the
	// simplex last verified consistency. Before the first incumbent,
	// quiescence checks are skipped while it is clear.
	residualDirty bool

	// Objective tier (set by Minimize): the branch-and-bound improvement
	// bound obj <= objBound never becomes a tableau row — its nine-orders-
	// of-magnitude coefficients would poison the ±1 network tableau with
	// huge-denominator rationals. Instead the objective is minimized exactly
	// over the asserted bounds (at every quiescence where a bound moved once
	// an incumbent exists, and at every full assignment) and compared
	// against the bound, explaining violations with the LP dual's binding
	// bounds. objTerms is in ascending Var order.
	objTerms    []linTerm
	objActive   bool
	objBound    float64  // tightest asserted improvement bound...
	objBoundRat *big.Rat // ...exactly; nil before the first incumbent
	objBoundLit int      // literal that asserted it
	lastObjMin  *big.Rat // exact constrained optimum at the last full assignment
	objErr      error    // deferred minimize failure (unbounded objective)

	// Per-tier accounting (see TierStats).
	diffAtoms, linAtoms int
	jointChecks         int64
	simplexTime         time.Duration

	// debugMinimize traces Minimize iterations; latched from
	// SMT_DEBUG_MINIMIZE at construction so the hot loop never consults the
	// environment.
	debugMinimize bool

	// debugKnownPoint, when non-nil, is a claimed satisfying assignment for
	// the real variables. Every theory conflict is audited against it: a
	// conflict whose literals all hold at the known point is a soundness
	// bug and panics. Test-only.
	debugKnownPoint func(Var) float64
	// slackExpr records the defining expression of each interned slack (in
	// terms of user variables), for debug auditing.
	slackExpr map[int]LinExpr

	// debugAsserted records every asserted formula when model auditing is
	// enabled (test-only).
	debugAsserted []Formula
	debugAudit    bool
}

type atomRec struct {
	slack  int
	k      float64
	strict bool
	// Difference-tier routing: when diff is true the atom reads
	// x_pos - x_neg <= k over constraint-graph nodes (node 0 = zero node)
	// and asserts route to the difference-logic engine instead of the
	// simplex.
	diff     bool
	pos, neg int32
	// objBound marks Minimize's improvement-bound pseudo-atoms obj <= k,
	// enforced at completeCheck rather than by either solver tier.
	objBound bool
}

// atomKey interns atoms: one SAT variable per distinct (slack, k, strict).
type atomKey struct {
	slack  int
	k      float64
	strict bool
}

// pairKey interns the slack of a one- or two-term expression without
// formatting a string. One-term expressions leave v2 = -1.
type pairKey struct {
	v1, v2 Var
	c1, c2 float64
}

// NewSolver returns an empty solver with a private workspace.
func NewSolver() *Solver { return NewSolverWarm(nil) }

// NewSolverWarm returns an empty solver backed by the given reusable
// workspace (see WarmStart). Passing nil allocates a private one. The
// workspace is reset and owned by the new solver: any previous solver using
// it must be finished, and two live solvers must never share one.
func NewSolverWarm(ws *WarmStart) *Solver {
	s := &Solver{
		sx:            newSimplex(ws),
		dl:            newDiffLogic(),
		atomBySig:     map[atomKey]int{},
		atomOfVar:     map[int]atomRec{},
		slackByPair:   map[pairKey]int{},
		slackByKey:    map[string]int{},
		boolSatVar:    map[BoolV]int{},
		slackExpr:     map[int]LinExpr{},
		debugMinimize: os.Getenv("SMT_DEBUG_MINIMIZE") != "",
	}
	s.sat = newSatSolver(s)
	s.trueVar = s.sat.newVar()
	s.sat.addClause([]int{mkLit(s.trueVar, false)})
	return s
}

// DisableDiffLogic routes every atom through the rational simplex,
// reproducing the pre-tiered solver. Differential-testing and ablation
// only; must be called before the first Assert.
func (s *Solver) DisableDiffLogic() { s.diffOff = true }

// DisableDyadic forces every simplex value through exact *big.Rat,
// bypassing the dyadic machine-word fast path — the pre-dyadic solver.
// Differential-testing and ablation only; must be called before the first
// Assert (values already admitted dyadically would stay dyadic).
func (s *Solver) DisableDyadic() { s.sx.nst.disabled = true }

// TierStats reports how theory work split across the two tiers.
type TierStats struct {
	// DiffAtoms and LinAtoms count interned atoms by classification:
	// difference-shaped vs genuinely linear. Difference atoms are asserted
	// to the difference engine, linear atoms only to the simplex.
	DiffAtoms, LinAtoms int
	// DiffAsserts, DiffRepairs and DiffConflicts are the difference
	// engine's activity counters: edges asserted, potential repairs, and
	// negative-cycle conflicts.
	DiffAsserts, DiffRepairs, DiffConflicts int64
	// JointChecks counts complete-assignment consistency checks that
	// replayed the difference graph into the simplex.
	JointChecks int64
	// SimplexTime is the wall-clock time spent inside the exact rational
	// simplex (consistency checks, joint replays, objective minimization).
	SimplexTime time.Duration
	// Pivots counts simplex basis exchanges — the unit of tableau work.
	Pivots int64
	// DyadicPromotions counts arithmetic operations that left the dyadic
	// machine-word fast path for exact big.Rat (overflow, non-dyadic
	// division, or the fast path being disabled).
	DyadicPromotions int64
	// PeakRatBits is the largest numerator/denominator bit-length observed
	// on any promoted result; 0 when no operation ever promoted.
	PeakRatBits int
	// RatBitsHist buckets promoted-result bit-lengths:
	// <=64, <=128, <=256, <=512, <=1024, >1024.
	RatBitsHist [6]int64
}

// TierStats returns the per-tier theory counters accumulated so far.
func (s *Solver) TierStats() TierStats {
	return TierStats{
		DiffAtoms:     s.diffAtoms,
		LinAtoms:      s.linAtoms,
		DiffAsserts:   s.dl.asserts,
		DiffRepairs:   s.dl.repairs,
		DiffConflicts: s.dl.conflicts,
		JointChecks:   s.jointChecks,
		SimplexTime:   s.simplexTime,

		Pivots:           s.sx.pivots,
		DyadicPromotions: s.sx.nst.promotions,
		PeakRatBits:      s.sx.nst.peakBits,
		RatBitsHist:      s.sx.nst.bitsHist,
	}
}

// Real creates a fresh real-valued variable.
func (s *Solver) Real() Var {
	v := Var(s.sx.addVar())
	s.realVars = append(s.realVars, v)
	return v
}

// Bool creates a fresh propositional variable.
func (s *Solver) Bool() BoolV {
	b := BoolV(s.nBools)
	s.nBools++
	s.boolSatVar[b] = s.sat.newVar()
	return b
}

// NumAtoms returns the number of distinct theory atoms created so far.
func (s *Solver) NumAtoms() int { return len(s.atomOfVar) }

// NumClauses returns the number of clauses (original + learned).
func (s *Solver) NumClauses() int { return len(s.sat.clauses) }

// Stats returns (decisions, conflicts) counters from the SAT core.
func (s *Solver) Stats() (int64, int64) { return s.sat.decisions, s.sat.conflicts }

// theoryHooks implementation -------------------------------------------------

func (s *Solver) isTheoryVar(v int) bool {
	_, ok := s.atomOfVar[v]
	return ok
}

func (s *Solver) assertLit(lit int) []int {
	rec := s.atomOfVar[litVar(lit)]
	if rec.objBound {
		// Improvement bound obj <= k: record the tightest one for the
		// objective checks. Pinned true at level 0, so it is never negated
		// and never backtracked.
		if !litNeg(lit) {
			if kr := ratOf(rec.k); s.objBoundRat == nil || kr.Cmp(s.objBoundRat) < 0 {
				s.objBound, s.objBoundRat = rec.k, kr
				s.objBoundLit = lit
			}
		}
		return nil
	}
	if rec.diff {
		// Difference tier: the atom (or its negation) is a single
		// constraint-graph edge. The incremental negative-cycle check is
		// the search-time consistency test; the bound is then mirrored
		// onto the simplex trail (a cheap record — no tableau work until
		// the next joint check) so joint models and the exact objective
		// minimization see the whole constraint set.
		var conflict []int
		if !litNeg(lit) {
			w := rec.k
			if rec.strict {
				w -= StrictEps
			}
			conflict = s.dl.assert(rec.neg, rec.pos, w, lit)
		} else {
			w := -rec.k
			if !rec.strict {
				w -= StrictEps
			}
			conflict = s.dl.assert(rec.pos, rec.neg, w, lit)
		}
		if conflict != nil {
			s.auditConflict(conflict, "assertLit/difflogic")
			return conflict
		}
		return s.simplexBound(lit, rec)
	}
	s.residualDirty = true
	return s.simplexBound(lit, rec)
}

// simplexBound installs the literal's bound on the simplex trail.
func (s *Solver) simplexBound(lit int, rec atomRec) []int {
	var conflict []int
	var ok bool
	if !litNeg(lit) {
		// Atom true: lhs <= k (or < k).
		ub := rec.k
		if rec.strict {
			ub -= StrictEps
		}
		conflict, ok = s.sx.assertUpper(rec.slack, ub, lit)
	} else {
		// Atom false: lhs > k (or >= k when the atom was strict).
		lb := rec.k
		if !rec.strict {
			lb += StrictEps
		}
		conflict, ok = s.sx.assertLower(rec.slack, lb, lit)
	}
	if ok {
		return nil
	}
	s.auditConflict(conflict, "assertLit")
	return conflict
}

// finalCheck runs at every propagation quiescence. Before the first
// incumbent, the difference tier is kept consistent edge-by-edge and its
// mirrored simplex bounds are only records, so a check is needed only when
// a genuinely linear (residual-tier) bound moved — with every scheduling
// atom difference-shaped, the common case is a no-op. Once an incumbent
// bounds the objective, any moved bound runs the joint check and an exact
// minimization over the bounds asserted so far: a partial assignment whose
// LP relaxation already exceeds the bound is cut off here, with the same
// dual-core conflict completeCheck builds, instead of being completed.
// checked reports whether the simplex ran.
func (s *Solver) finalCheck() (conflict []int, checked bool) {
	prune := s.objBoundRat != nil && s.objActive && s.objErr == nil
	if prune && !s.sx.needCheck || !prune && !s.residualDirty {
		return nil, false
	}
	t0 := time.Now()
	defer func() { s.simplexTime += time.Since(t0) }()
	conflict, ok := s.sx.check()
	if !ok {
		s.auditConflict(conflict, "finalCheck")
		return conflict, true
	}
	s.residualDirty = false
	if !prune || s.sx.minimize(s.objTerms) != nil {
		// No incumbent yet, or the objective is unbounded over a partial
		// assignment: nothing to prune.
		return nil, true
	}
	return s.objectiveConflict(nil, "finalCheck/objective"), true
}

// completeCheck runs once the SAT core has a full assignment, in two steps.
// First, joint feasibility: every asserted bound — mirrored difference edges
// and residual linear atoms alike — is already on the simplex trail, so one
// deferred-clamp check settles the conjunction exactly. Second, the
// objective tier: the objective is minimized exactly within the assignment
// and compared against the tightest improvement bound; a violation is
// explained by the optimum's dual certificate (the binding bounds that
// force the objective that high) plus the bound literal, steering the
// search toward structurally different schedules.
func (s *Solver) completeCheck() []int {
	objective := s.objActive && s.objErr == nil
	if !s.sx.needCheck && !objective {
		return nil
	}
	s.jointChecks++
	t0 := time.Now()
	defer func() { s.simplexTime += time.Since(t0) }()
	if s.sx.needCheck {
		conflict, ok := s.sx.check()
		if !ok {
			s.auditConflict(conflict, "completeCheck")
			return conflict
		}
		s.residualDirty = false
	}
	if !objective {
		return nil
	}
	if err := s.sx.minimize(s.objTerms); err != nil {
		// Unbounded objective: not a conflict any clause can express;
		// stash it for Minimize to surface after solve returns.
		s.objErr = err
		return nil
	}
	s.lastObjMin = s.sx.objValue(s.objTerms)
	return s.objectiveConflict(s.lastObjMin, "completeCheck/objective")
}

// objectiveConflict compares the minimum the simplex sits at against the
// incumbent bound and returns the violation's conflict — the dual core plus
// the bound's literal — or nil. min is the exact minimum when the caller
// has it; when nil, a float estimate settles the common no-violation case
// and the exact value is computed only when the estimate cannot.
func (s *Solver) objectiveConflict(min *big.Rat, origin string) []int {
	if s.objBoundRat == nil {
		return nil
	}
	if min == nil {
		if est, tol := s.sx.objEstimate(s.objTerms); est+tol <= s.objBound {
			return nil
		}
		min = s.sx.objValue(s.objTerms)
	}
	if min.Cmp(s.objBoundRat) <= 0 {
		return nil
	}
	conflict := append(s.sx.dualCore(), s.objBoundLit)
	s.auditConflict(conflict, origin)
	return conflict
}

func (s *Solver) pushLevel() {
	s.sx.pushLevel()
	s.dl.pushLevel()
}

func (s *Solver) popLevels(n int) {
	s.sx.popLevels(n)
	s.dl.popLevels(n)
}

// Encoding --------------------------------------------------------------------

// slackFor returns the simplex variable representing the variable part of e
// (interned). A single-term expression with coefficient 1 maps to the
// variable itself. One- and two-term expressions intern through a struct
// key; only longer combinations pay for the canonical string.
func (s *Solver) slackFor(e LinExpr) int {
	vars, coeffs := e.Terms()
	if len(vars) == 1 && coeffs[0] == 1 {
		return int(vars[0])
	}
	var pk pairKey
	usePair := len(vars) <= 2
	if usePair {
		pk = pairKey{v1: vars[0], v2: -1, c1: coeffs[0]}
		if len(vars) == 2 {
			pk.v2, pk.c2 = vars[1], coeffs[1]
		}
		if sl, ok := s.slackByPair[pk]; ok {
			return sl
		}
	} else if sl, ok := s.slackByKey[e.key()]; ok {
		return sl
	}
	sl := s.sx.defineSlack(e.linTerms())
	if usePair {
		s.slackByPair[pk] = sl
	} else {
		s.slackByKey[e.key()] = sl
	}
	s.slackExpr[sl] = LinExpr{terms: e.terms} // expressions are immutable: share
	return sl
}

// SetDebugKnownPoint installs a claimed satisfying assignment for auditing
// theory conflicts (test-only; see debugKnownPoint).
func (s *Solver) SetDebugKnownPoint(f func(Var) float64) { s.debugKnownPoint = f }

// auditConflict panics if every literal of the explanation holds at the
// debug known point (i.e. the theory produced a false conflict).
func (s *Solver) auditConflict(expl []int, origin string) {
	if s.debugKnownPoint == nil || len(expl) == 0 {
		return
	}
	for _, lit := range expl {
		rec, ok := s.atomOfVar[litVar(lit)]
		if !ok {
			return // non-atom literal: cannot audit
		}
		var lhs float64
		switch {
		case rec.objBound:
			for _, t := range s.objTerms {
				lhs += t.c * s.debugKnownPoint(t.v)
			}
		default:
			if e, ok := s.slackExpr[rec.slack]; ok {
				lhs = e.Eval(s.debugKnownPoint)
			} else {
				lhs = s.debugKnownPoint(Var(rec.slack))
			}
		}
		truth := lhs <= rec.k+1e-9
		if rec.strict {
			truth = lhs < rec.k-1e-9
		}
		if litNeg(lit) {
			truth = !truth
		}
		if !truth {
			return // some literal is false at the known point: conflict is fine
		}
	}
	detail := "invariants: " + s.sx.debugCheckInvariants() + "\n"
	for _, lit := range expl {
		rec := s.atomOfVar[litVar(lit)]
		if rec.objBound {
			detail += fmt.Sprintf("  lit %d: [objective <= %.9g]\n", lit, rec.k)
			continue
		}
		var lhs float64
		if e, ok := s.slackExpr[rec.slack]; ok {
			lhs = e.Eval(s.debugKnownPoint)
		} else {
			lhs = s.debugKnownPoint(Var(rec.slack))
		}
		op := "<="
		if rec.strict {
			op = "<"
		}
		neg := ""
		if litNeg(lit) {
			neg = "NOT "
		}
		detail += fmt.Sprintf("  lit %d: %s[slack%d %s %.9g] lhs@point=%.9g lb=%v ub=%v val=%.9g\n",
			lit, neg, rec.slack, op, rec.k, lhs,
			s.sx.lower[rec.slack], s.sx.upper[rec.slack], s.sx.value(rec.slack))
	}
	panic(fmt.Sprintf("smt: FALSE THEORY CONFLICT from %s — all %d literals hold at known point:\n%s",
		origin, len(expl), detail))
}

// atomVar returns the SAT variable for the atom lhs <= k (or < k), interned.
// Each new atom is classified once: difference-shaped atoms (±x <= k,
// x - y <= k) route their asserts to the difference-logic tier, everything
// else to the simplex.
func (s *Solver) atomVar(lhs LinExpr, k float64, strict bool) int {
	if !isFinite(k) {
		panic("smt: non-finite atom constant")
	}
	sl := s.slackFor(lhs)
	sig := atomKey{slack: sl, k: k, strict: strict}
	if v, ok := s.atomBySig[sig]; ok {
		return v
	}
	v := s.sat.newVar()
	rec := atomRec{slack: sl, k: k, strict: strict}
	if pos, neg, ok := diffNodes(lhs); ok && !s.diffOff {
		rec.diff, rec.pos, rec.neg = true, pos, neg
		s.diffAtoms++
	} else {
		s.linAtoms++
	}
	s.atomBySig[sig] = v
	s.atomOfVar[v] = rec
	return v
}

// diffNodes classifies the variable part of an atom's left-hand side:
// expressions of the form x, -x, or x - y are difference-logic material and
// map to a pair of constraint-graph nodes (lhs = x_pos - x_neg), with the
// virtual zero node standing in for the missing side of a unary bound.
func diffNodes(e LinExpr) (pos, neg int32, ok bool) {
	switch len(e.terms) {
	case 1:
		for v, c := range e.terms {
			if c == 1 {
				return dlNode(v), 0, true
			}
			if c == -1 {
				return 0, dlNode(v), true
			}
		}
	case 2:
		var pv, nv Var
		found := 0
		for v, c := range e.terms {
			if c == 1 {
				pv = v
				found++
			} else if c == -1 {
				nv = v
				found += 2
			}
		}
		if found == 3 {
			return dlNode(pv), dlNode(nv), true
		}
	}
	return 0, 0, false
}

// encode converts a formula into a SAT literal (Tseitin transformation).
func (s *Solver) encode(f Formula) int {
	switch f.kind {
	case kindTrue:
		return mkLit(s.trueVar, false)
	case kindFalse:
		return mkLit(s.trueVar, true)
	case kindAtom:
		if f.lhs.IsConst() {
			// Constant atom: 0 <= k (or <).
			truth := 0 <= f.k
			if f.strict {
				truth = 0 < f.k
			}
			return mkLit(s.trueVar, !truth)
		}
		return mkLit(s.atomVar(f.lhs, f.k, f.strict), false)
	case kindBool:
		v, ok := s.boolSatVar[f.b]
		if !ok {
			panic(fmt.Sprintf("smt: unknown boolean variable b%d", int(f.b)))
		}
		return mkLit(v, false)
	case kindNot:
		return litNotOf(s.encode(f.kids[0]))
	case kindAnd:
		lits := make([]int, len(f.kids))
		for i, k := range f.kids {
			lits[i] = s.encode(k)
		}
		aux := s.sat.newVar()
		a := mkLit(aux, false)
		// a -> li for each i; (l1 & ... & ln) -> a.
		long := make([]int, 0, len(lits)+1)
		long = append(long, a)
		for _, l := range lits {
			s.sat.addClause([]int{litNotOf(a), l})
			long = append(long, litNotOf(l))
		}
		s.sat.addClause(long)
		return a
	case kindOr:
		lits := make([]int, len(f.kids))
		for i, k := range f.kids {
			lits[i] = s.encode(k)
		}
		aux := s.sat.newVar()
		a := mkLit(aux, false)
		long := make([]int, 0, len(lits)+1)
		long = append(long, litNotOf(a))
		for _, l := range lits {
			s.sat.addClause([]int{a, litNotOf(l)})
			long = append(long, l)
		}
		s.sat.addClause(long)
		return a
	case kindImplies:
		return s.encode(Or(Not(f.kids[0]), f.kids[1]))
	case kindIff:
		a, b := f.kids[0], f.kids[1]
		return s.encode(And(Or(Not(a), b), Or(Not(b), a)))
	}
	panic("smt: unknown formula kind")
}

// EnableDebugModelAudit records asserted formulas and validates every model
// returned by Check/Minimize against them (test-only).
func (s *Solver) EnableDebugModelAudit() { s.debugAudit = true }

// evalFormula3 evaluates f under a model three-valued: +1 definitely true,
// -1 definitely false, 0 inconclusive (an atom within tolerance of its
// boundary, where the solver's epsilon conventions make the comparison
// ambiguous).
func (m *Model) evalFormula3(f Formula) int {
	const tol = 1e-4
	switch f.kind {
	case kindTrue:
		return 1
	case kindFalse:
		return -1
	case kindAtom:
		lhs := f.lhs.Eval(func(v Var) float64 { return m.reals[v] })
		d := lhs - f.k
		switch {
		case d < -tol:
			return 1
		case d > tol:
			return -1
		default:
			return 0
		}
	case kindBool:
		if m.bools[f.b] {
			return 1
		}
		return -1
	case kindNot:
		return -m.evalFormula3(f.kids[0])
	case kindAnd:
		r := 1
		for _, k := range f.kids {
			v := m.evalFormula3(k)
			if v < r {
				r = v
			}
		}
		return r
	case kindOr:
		r := -1
		for _, k := range f.kids {
			v := m.evalFormula3(k)
			if v > r {
				r = v
			}
		}
		return r
	case kindImplies:
		return Or(Not(f.kids[0]), f.kids[1]).eval3On(m)
	case kindIff:
		a, b := m.evalFormula3(f.kids[0]), m.evalFormula3(f.kids[1])
		if a == 0 || b == 0 {
			return 0
		}
		if a == b {
			return 1
		}
		return -1
	}
	return 0
}

func (f Formula) eval3On(m *Model) int { return m.evalFormula3(f) }

func (s *Solver) auditModel(m *Model, origin string) {
	if !s.debugAudit {
		return
	}
	for i, f := range s.debugAsserted {
		if m.evalFormula3(f) < 0 {
			panic(fmt.Sprintf("smt: model from %s violates asserted formula %d: %s", origin, i, f.String()))
		}
	}
}

// Assert adds f as a hard constraint.
func (s *Solver) Assert(f Formula) {
	if s.debugAudit {
		s.debugAsserted = append(s.debugAsserted, f)
	}
	s.sat.backjump(0)
	switch f.kind {
	case kindTrue:
		return
	case kindAnd:
		for _, k := range f.kids {
			s.Assert(k)
		}
		return
	case kindOr:
		// Assert a top-level disjunction as a single clause when all
		// children are literal-like, avoiding an auxiliary variable.
		lits := make([]int, 0, len(f.kids))
		simple := true
		for _, k := range f.kids {
			if isLiteralLike(k) {
				lits = append(lits, s.encode(k))
			} else {
				simple = false
				break
			}
		}
		if simple {
			s.sat.addClause(lits)
			return
		}
	}
	s.sat.addClause([]int{s.encode(f)})
}

func isLiteralLike(f Formula) bool {
	switch f.kind {
	case kindAtom, kindBool, kindTrue, kindFalse:
		return true
	case kindNot:
		return isLiteralLike(f.kids[0])
	}
	return false
}

// Model ------------------------------------------------------------------------

// Model holds a satisfying assignment.
type Model struct {
	reals     map[Var]float64
	bools     map[BoolV]bool
	Objective float64
}

// Real returns the value of a real variable.
func (m *Model) Real(v Var) float64 { return m.reals[v] }

// Bool returns the value of a propositional variable.
func (m *Model) Bool(b BoolV) bool { return m.bools[b] }

// Eval evaluates a linear expression under the model.
func (m *Model) Eval(e LinExpr) float64 { return e.Eval(func(v Var) float64 { return m.reals[v] }) }

func (s *Solver) snapshotModel() *Model {
	m := &Model{reals: map[Var]float64{}, bools: map[BoolV]bool{}}
	for _, v := range s.realVars {
		m.reals[v] = s.sx.value(int(v))
	}
	for b, sv := range s.boolSatVar {
		m.bools[b] = s.sat.assign[sv] == valTrue
	}
	return m
}

// Check tests satisfiability, returning a model when satisfiable.
func (s *Solver) Check() (*Model, bool) {
	sat, _ := s.sat.solve(0)
	if !sat {
		return nil, false
	}
	// completeCheck settled every mirrored bound, so the snapshot is an
	// exact joint model of both tiers.
	m := s.snapshotModel()
	s.auditModel(m, "Check")
	return m, true
}

// MinimizeOpts configures Minimize.
type MinimizeOpts struct {
	// Eps is the strict-improvement margin between successive incumbent
	// objective values. The final answer is within Eps of optimal.
	Eps float64
	// MaxIter bounds the number of incumbent improvements.
	MaxIter int
	// MaxConflicts bounds total SAT conflicts (0 = unlimited).
	MaxConflicts int64
	// Deadline makes Minimize anytime: when the wall clock budget expires
	// the best incumbent found so far is returned (0 = no deadline).
	Deadline time.Duration
	// Cancel aborts the optimization when the channel closes (typically a
	// context.Context's Done channel). The solver notices within one
	// conflict-check interval. When an incumbent exists it is returned as
	// the anytime answer; otherwise Minimize fails with ErrCanceled.
	Cancel <-chan struct{}
}

// ErrCanceled is returned by Minimize when its Cancel channel closes before
// any incumbent model has been found.
var ErrCanceled = errors.New("smt: optimization canceled")

// Minimize finds a model minimizing obj (within opts.Eps) by branch and
// bound in the objective tier: every time the SAT+theory search completes an
// assignment, the objective is minimized exactly within it by simplex (part
// of completeCheck), and the bound obj <= incumbent - Eps is installed as a
// pseudo-atom before continuing; from then on every quiescence prunes
// partial assignments whose relaxation cannot beat it (finalCheck). Returns
// the best model found; ok is false if the constraints are unsatisfiable. A
// solver optimizes one objective: call Minimize at most once per Solver
// (further Asserts and Checks remain valid afterwards).
func (s *Solver) Minimize(obj LinExpr, opts ...MinimizeOpts) (*Model, bool, error) {
	opt := MinimizeOpts{Eps: 1e-5, MaxIter: 10000}
	if len(opts) > 0 {
		opt = opts[0]
		if opt.Eps <= 0 {
			opt.Eps = 1e-5
		}
		if opt.MaxIter <= 0 {
			opt.MaxIter = 10000
		}
	}
	var best *Model
	s.objTerms = obj.linTerms()
	s.objActive = true
	s.objErr = nil
	debugTrace := s.debugMinimize
	if opt.Deadline > 0 {
		s.sat.deadline = time.Now().Add(opt.Deadline)
	} else {
		s.sat.deadline = time.Time{}
	}
	s.sat.cancel = opt.Cancel
	rootLB := math.Inf(-1)
	tLoop := time.Now()
	for iter := 0; iter < opt.MaxIter; iter++ {
		sat, err := s.sat.solve(opt.MaxConflicts)
		if err != nil {
			// Conflict budget exhausted: return the incumbent if any.
			if best != nil {
				return best, true, nil
			}
			return nil, false, err
		}
		if !sat {
			if debugTrace {
				fmt.Printf("smt minimize: iter %d UNSAT, done (%v elapsed)\n", iter, time.Since(tLoop))
			}
			break
		}
		if s.objErr != nil {
			return nil, false, s.objErr
		}
		// completeCheck already minimized the objective exactly over both
		// tiers' constraints and left the simplex at the optimal vertex.
		val, _ := s.lastObjMin.Float64()
		if debugTrace {
			fmt.Printf("smt minimize: iter %d incumbent %.9g (%v elapsed)\n", iter, val+obj.Constant(), time.Since(tLoop))
		}
		m := s.snapshotModel()
		m.Objective = val + obj.Constant()
		s.auditModel(m, "Minimize")
		best = m
		// Reuse the incumbent across objective-tightening iterations: saving
		// its boolean structure as the branching polarity lets the next
		// round re-derive a (tighter) nearby solution instead of re-solving
		// from scratch.
		s.sat.savePhases()
		// Require strict improvement and continue searching.
		margin := math.Max(opt.Eps, math.Abs(val)*1e-9)
		s.assertObjectiveBound(val - margin)
		if iter == 0 {
			// Root relaxation bound: the objective minimum over the
			// always-true (level-0) constraints alone — every model's
			// objective is at least this. The bound assertion just
			// backjumped to level 0, so the simplex holds exactly those
			// bounds. Often the first incumbent already meets it, skipping
			// both the tightening rounds and the final UNSAT proof.
			t0 := time.Now()
			if _, ok := s.sx.check(); ok && s.sx.minimize(s.objTerms) == nil {
				rootLB, _ = s.sx.objValue(s.objTerms).Float64()
			}
			s.simplexTime += time.Since(t0)
		}
		if val-margin < rootLB {
			if debugTrace {
				fmt.Printf("smt minimize: incumbent %.9g meets root bound %.9g, done\n",
					val+obj.Constant(), rootLB+obj.Constant())
			}
			break
		}
	}
	if best == nil {
		return nil, false, nil
	}
	return best, true, nil
}

// assertObjectiveBound pins the strict-improvement bound obj <= k for the
// branch-and-bound loop. The bound lives in the objective tier: it is a
// SAT-visible pseudo-atom (so learned clauses can cite it) whose theory
// content finalCheck and completeCheck enforce by exact minimization.
func (s *Solver) assertObjectiveBound(k float64) {
	s.sat.backjump(0)
	v := s.sat.newVar()
	s.atomOfVar[v] = atomRec{objBound: true, k: k}
	s.sat.addClause([]int{mkLit(v, false)})
}

// EnableDebugStrict turns on per-mutation tableau invariant validation
// (test-only; very slow).
func (s *Solver) EnableDebugStrict() { s.sx.debugStrict = true }
