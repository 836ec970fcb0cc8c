package smt

import "time"

// CDCL SAT core with two-watched-literal propagation, 1UIP conflict
// analysis, VSIDS-style branching activity, and Luby restarts. The theory
// solver is consulted through the theoryHooks interface as literals are
// assigned (online DPLL(T)).

// Literals encode variable v and sign as v<<1 | neg: lit 2v is "v true",
// lit 2v+1 is "v false".

func mkLit(v int, neg bool) int {
	l := v << 1
	if neg {
		l |= 1
	}
	return l
}

func litVar(l int) int   { return l >> 1 }
func litNeg(l int) bool  { return l&1 == 1 }
func litNotOf(l int) int { return l ^ 1 }

const (
	valUnassigned int8 = iota
	valTrue
	valFalse
)

type theoryHooks interface {
	// assertLit is invoked when a theory-relevant literal becomes true.
	// It returns a conflict (the set of true literals that are jointly
	// theory-inconsistent) or nil.
	assertLit(lit int) []int
	// finalCheck runs a theory consistency check at every propagation
	// quiescence, reporting whether it did simplex work (solve then polls
	// the deadline).
	finalCheck() (conflict []int, checked bool)
	// completeCheck runs once the assignment is total, just before the
	// solver would report SAT: it establishes joint consistency across
	// theory tiers (cheap per-tier checks may each pass while the
	// conjunction is infeasible). A conflict from here may involve only
	// literals below the current decision level; solve backjumps to the
	// conflict's deepest level before analyzing it.
	completeCheck() []int
	// pushLevel / popLevels follow the SAT solver's decision stack.
	pushLevel()
	popLevels(n int)
	// isTheoryVar reports whether the SAT variable is a theory atom.
	isTheoryVar(v int) bool
}

type satSolver struct {
	theory theoryHooks

	nVars   int
	clauses [][]int // all clauses (original + learned)
	watches [][]int // lit -> clause indices watching lit

	assign   []int8
	level    []int
	reason   []int // clause index that implied the assignment, or -1
	trail    []int // assigned literals in order
	trailLim []int // trail size at each decision level
	qhead    int   // next trail position for unit propagation
	theoryQ  int   // next trail position to hand to the theory

	activity []float64
	varInc   float64
	// vheap/hpos: activity-ordered binary max-heap of branching candidates
	// (MiniSat's order heap). Assigned variables are deleted lazily — popped
	// and dropped by pickBranchVar, re-inserted when backjumping unassigns
	// them — so decisions cost O(log n) instead of a scan over all
	// variables. hpos[v] is v's index in vheap, -1 when absent.
	vheap []int
	hpos  []int

	// phase holds the saved branching polarity per variable (valUnassigned
	// = no preference, branch false-first). Minimize records each incumbent
	// model here so successive objective-tightening iterations restart the
	// search in the neighborhood of the best known solution instead of
	// re-deriving it from scratch.
	phase []int8

	seen []bool // scratch for conflict analysis

	conflicts int64
	decisions int64
	unsat     bool // established at level 0

	// deadline, when nonzero, aborts solve with errBudget once passed
	// (checked every 64 iterations and after every simplex quiescence
	// check), making optimization anytime.
	deadline      time.Time
	deadlineCheck int
	// cancel, when non-nil, aborts solve with the caller's cancellation
	// error as soon as the channel closes (checked at the same interval as
	// the deadline).
	cancel <-chan struct{}
}

func newSatSolver(theory theoryHooks) *satSolver {
	return &satSolver{theory: theory, varInc: 1}
}

func (s *satSolver) newVar() int {
	v := s.nVars
	s.nVars++
	s.assign = append(s.assign, valUnassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, -1)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, valUnassigned)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	s.hpos = append(s.hpos, -1)
	s.heapInsert(v)
	return v
}

func (s *satSolver) valueLit(l int) int8 {
	v := s.assign[litVar(l)]
	if v == valUnassigned {
		return valUnassigned
	}
	if litNeg(l) {
		if v == valTrue {
			return valFalse
		}
		return valTrue
	}
	return v
}

// addClause installs a clause. It must be called at decision level 0.
// Returns false if the clause makes the problem trivially UNSAT.
func (s *satSolver) addClause(lits []int) bool {
	if s.decisionLevel() != 0 {
		panic("smt: addClause above level 0")
	}
	// Simplify: drop false literals and duplicates, detect tautologies and
	// satisfied clauses.
	var out []int
	seen := map[int]bool{}
	for _, l := range lits {
		switch s.valueLit(l) {
		case valTrue:
			return true
		case valFalse:
			continue
		}
		if seen[litNotOf(l)] {
			return true // tautology
		}
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], -1) {
			s.unsat = true
			return false
		}
		if conf := s.propagate(); conf != nil {
			s.unsat = true
			return false
		}
		return true
	}
	s.attachClause(out)
	return true
}

func (s *satSolver) attachClause(lits []int) int {
	idx := len(s.clauses)
	s.clauses = append(s.clauses, lits)
	s.watches[litNotOf(lits[0])] = append(s.watches[litNotOf(lits[0])], idx)
	s.watches[litNotOf(lits[1])] = append(s.watches[litNotOf(lits[1])], idx)
	return idx
}

func (s *satSolver) decisionLevel() int { return len(s.trailLim) }

// enqueue assigns literal l with the given reason clause, returning false on
// an immediate conflict with the existing assignment.
func (s *satSolver) enqueue(l int, reasonClause int) bool {
	switch s.valueLit(l) {
	case valTrue:
		return true
	case valFalse:
		return false
	}
	v := litVar(l)
	if litNeg(l) {
		s.assign[v] = valFalse
	} else {
		s.assign[v] = valTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = reasonClause
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation. It returns a conflicting clause's
// literals, or nil when a fixpoint is reached.
func (s *satSolver) propagate() []int {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		// Clauses watching ¬l must find a new watch or propagate.
		ws := s.watches[l]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			c := s.clauses[ci]
			// Normalize: watched literals are c[0], c[1]; the falsified one
			// is ¬l.
			falsified := litNotOf(l)
			if c[0] == falsified {
				c[0], c[1] = c[1], c[0]
			}
			if s.valueLit(c[0]) == valTrue {
				kept = append(kept, ci)
				continue
			}
			// Search for a replacement watch.
			found := false
			for k := 2; k < len(c); k++ {
				if s.valueLit(c[k]) != valFalse {
					c[1], c[k] = c[k], c[1]
					s.watches[litNotOf(c[1])] = append(s.watches[litNotOf(c[1])], ci)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, ci)
			if !s.enqueue(c[0], ci) {
				// Conflict: keep remaining watches and report.
				kept = append(kept, ws[wi+1:]...)
				s.watches[l] = kept
				return c
			}
		}
		s.watches[l] = kept
	}
	return nil
}

// theorySync hands newly assigned theory literals to the theory solver.
// Returns a conflict clause (negated explanation) or nil.
func (s *satSolver) theorySync() []int {
	for s.theoryQ < len(s.trail) {
		l := s.trail[s.theoryQ]
		s.theoryQ++
		if !s.theory.isTheoryVar(litVar(l)) {
			continue
		}
		if expl := s.theory.assertLit(l); expl != nil {
			return negateAll(expl)
		}
	}
	return nil
}

func negateAll(lits []int) []int {
	out := make([]int, len(lits))
	for i, l := range lits {
		out[i] = litNotOf(l)
	}
	return out
}

// analyze performs 1UIP conflict analysis on the given conflicting clause,
// returning the learned clause (asserting literal first) and the backjump
// level. Precondition: every literal in conflict is false under the current
// assignment and at least one was assigned at the current level.
func (s *satSolver) analyze(conflict []int) ([]int, int) {
	learned := []int{0} // slot 0 reserved for the asserting literal
	counter := 0
	idx := len(s.trail) - 1
	var p int = -1
	reasonLits := conflict

	for {
		for _, q := range reasonLits {
			if p >= 0 && q == p {
				continue
			}
			v := litVar(q)
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpActivity(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Find the next marked literal on the trail.
		for idx >= 0 && !s.seen[litVar(s.trail[idx])] {
			idx--
		}
		if idx < 0 {
			break
		}
		pl := s.trail[idx]
		v := litVar(pl)
		s.seen[v] = false
		counter--
		idx--
		if counter == 0 {
			learned[0] = litNotOf(pl)
			break
		}
		ri := s.reason[v]
		if ri < 0 {
			// Decision or theory-asserted without reason; shouldn't happen
			// when counter > 0, but guard anyway.
			learned[0] = litNotOf(pl)
			break
		}
		p = pl
		reasonLits = s.clauses[ri]
	}
	// Clear seen flags for the learned clause.
	for _, l := range learned[1:] {
		s.seen[litVar(l)] = false
	}
	// Compute backjump level: max level among learned[1:].
	back := 0
	for i := 1; i < len(learned); i++ {
		if lv := s.level[litVar(learned[i])]; lv > back {
			back = lv
		}
	}
	// Move a literal of the backjump level into watch position 1.
	for i := 1; i < len(learned); i++ {
		if s.level[litVar(learned[i])] == back {
			learned[1], learned[i] = learned[i], learned[1]
			break
		}
	}
	return learned, back
}

func (s *satSolver) bumpActivity(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		// Uniform rescale preserves the heap order; no fixup needed.
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.hpos[v] >= 0 {
		s.siftUp(s.hpos[v])
	}
}

// Order-heap plumbing: a plain indexed binary max-heap on activity.

func (s *satSolver) heapSwap(i, j int) {
	h := s.vheap
	h[i], h[j] = h[j], h[i]
	s.hpos[h[i]] = i
	s.hpos[h[j]] = j
}

func (s *satSolver) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if s.activity[s.vheap[i]] <= s.activity[s.vheap[p]] {
			return
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *satSolver) siftDown(i int) {
	n := len(s.vheap)
	for {
		m := i
		if l := 2*i + 1; l < n && s.activity[s.vheap[l]] > s.activity[s.vheap[m]] {
			m = l
		}
		if r := 2*i + 2; r < n && s.activity[s.vheap[r]] > s.activity[s.vheap[m]] {
			m = r
		}
		if m == i {
			return
		}
		s.heapSwap(i, m)
		i = m
	}
}

func (s *satSolver) heapInsert(v int) {
	if s.hpos[v] >= 0 {
		return
	}
	s.hpos[v] = len(s.vheap)
	s.vheap = append(s.vheap, v)
	s.siftUp(s.hpos[v])
}

func (s *satSolver) decayActivity() { s.varInc /= 0.95 }

// backjump undoes assignments above the given level.
func (s *satSolver) backjump(level int) {
	if s.decisionLevel() <= level {
		return
	}
	popN := s.decisionLevel() - level
	lim := s.trailLim[level]
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := litVar(s.trail[i])
		s.assign[v] = valUnassigned
		s.reason[v] = -1
		s.heapInsert(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:level]
	if s.qhead > lim {
		s.qhead = lim
	}
	if s.theoryQ > lim {
		s.theoryQ = lim
	}
	s.theory.popLevels(popN)
}

// pickBranchVar pops the highest-activity unassigned variable, discarding
// stale (assigned) heap entries along the way, or returns -1 when every
// variable is assigned.
func (s *satSolver) pickBranchVar() int {
	for len(s.vheap) > 0 {
		v := s.vheap[0]
		last := len(s.vheap) - 1
		if last > 0 {
			s.vheap[0] = s.vheap[last]
			s.hpos[s.vheap[0]] = 0
		}
		s.vheap = s.vheap[:last]
		s.hpos[v] = -1
		if last > 0 {
			s.siftDown(0)
		}
		if s.assign[v] == valUnassigned {
			return v
		}
	}
	return -1
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// solve searches for a model consistent with the theory. Returns true when
// satisfiable (the assignment is left on the trail and the theory is in a
// consistent state covering all assigned atoms).
func (s *satSolver) solve(maxConflicts int64) (bool, error) {
	if s.unsat {
		return false, nil
	}
	restartNum := int64(1)
	budget := luby(restartNum) * 100
	for {
		if s.cancel != nil {
			// A non-blocking channel poll is cheap enough to run every
			// iteration; latency to abort is then bounded by one
			// propagate + theory-check round.
			select {
			case <-s.cancel:
				return false, ErrCanceled
			default:
			}
		}
		if !s.deadline.IsZero() {
			s.deadlineCheck++
			if s.deadlineCheck%64 == 0 && s.expired() {
				return false, errBudget
			}
		}
		conflictClause := s.propagate()
		if conflictClause == nil {
			conflictClause = s.theorySync()
		}
		if conflictClause == nil {
			// Theory check at every quiescence, so simplex infeasibilities
			// and objective-bound violations surface as soon as their
			// bounds exist rather than at the next full assignment. A
			// check that ran the simplex may have taken long enough to
			// matter for the budget, so the deadline is polled after it.
			expl, checked := s.theory.finalCheck()
			if checked && s.expired() {
				return false, errBudget
			}
			if expl != nil {
				conflictClause = negateAll(expl)
			}
		}
		if conflictClause == nil {
			// All propagated literals are theory-consistent per tier. If the
			// assignment is total, run the joint cross-tier check; a clean
			// result is a model.
			if v := s.pickBranchVar(); v < 0 {
				if expl := s.theory.completeCheck(); expl != nil {
					if s.expired() {
						return false, errBudget
					}
					conflictClause = negateAll(expl)
				} else {
					return true, nil
				}
			} else {
				s.decisions++
				s.trailLim = append(s.trailLim, len(s.trail))
				s.theory.pushLevel()
				// Phase heuristic: follow the saved polarity from the last
				// incumbent model, else try false first (schedules prefer
				// fewer overlaps).
				s.enqueue(mkLit(v, s.phase[v] != valTrue), -1)
				continue
			}
		}
		if len(conflictClause) == 0 {
			s.unsat = true
			return false, nil
		}
		s.conflicts++
		if maxConflicts > 0 && s.conflicts > maxConflicts {
			return false, errBudget
		}
		// A completeCheck conflict can sit entirely below the current
		// decision level (earlier quiescences never ran the joint check);
		// 1UIP analysis needs a current-level literal, so first backjump to
		// the deepest level the conflict mentions.
		maxLvl := 0
		for _, l := range conflictClause {
			if lv := s.level[litVar(l)]; lv > maxLvl {
				maxLvl = lv
			}
		}
		if maxLvl < s.decisionLevel() {
			s.backjump(maxLvl)
		}
		if s.decisionLevel() == 0 {
			s.unsat = true
			return false, nil
		}
		learned, back := s.analyze(conflictClause)
		s.backjump(back)
		switch len(learned) {
		case 1:
			if !s.enqueue(learned[0], -1) {
				s.unsat = true
				return false, nil
			}
		default:
			ci := s.attachClause(learned)
			if !s.enqueue(learned[0], ci) {
				s.unsat = true
				return false, nil
			}
		}
		s.decayActivity()
		budget--
		if budget <= 0 {
			restartNum++
			budget = luby(restartNum) * 100
			s.backjump(0)
		}
	}
}

// expired reports whether the deadline is set and has passed.
func (s *satSolver) expired() bool {
	return !s.deadline.IsZero() && time.Now().After(s.deadline)
}

// savePhases records the current (full) assignment as the preferred
// branching polarity of every variable. Called on each incumbent model so
// the next objective-tightening round reuses the incumbent's structure.
func (s *satSolver) savePhases() {
	copy(s.phase, s.assign)
}

type budgetErr struct{}

func (budgetErr) Error() string { return "smt: conflict budget exhausted" }

var errBudget = budgetErr{}
