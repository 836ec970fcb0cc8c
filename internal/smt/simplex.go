package smt

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
)

// The theory solver is an incremental bounded-variable simplex in the style
// of Dutertre & de Moura (SMT'06), over exact rational arithmetic. Exact
// arithmetic matters: scheduling encodings mix coefficients spanning nine
// orders of magnitude (start times in ns against decoherence weights 1/T1),
// and floating-point tableaus corrupt silently under such conditioning,
// yielding false UNSAT verdicts. All float64 inputs convert exactly (they
// are dyadic rationals); Bland's rule then terminates without epsilon
// tuning.
//
// Numbers are the hybrid num type (num.go): a machine-word dyadic fast path
// with transparent promotion to wide exact representations on overflow or
// non-dyadic division, so the hot loops run on int64 arithmetic while
// correctness stays bit-exact.
//
// Rows are stored over a common denominator: basic b's row is
//
//	x_b = (sum_k n_k x_k) / D_b
//
// with every numerator n_k and the positive denominator D_b dyadic
// (kInt/kBig), never a fraction. This is the fraction-free representation:
// pivoting and substitution are then pure integer (dyadic) multiply-adds —
// scheduling tableaus are near-network matrices whose pivot numerators are
// almost always ±2^k, which under a shared denominator cost literal shifts
// — and reduction happens at most once per row per pivot, as an amortized
// content GCD, instead of inside every coefficient operation. Two earlier
// shapes lost to this one on profiles: per-entry big.Rat coefficients spent
// a third of solve time in per-op GCD normalization, and per-entry lazy
// fractions still paid a GCD per product because every substitution dragged
// the pivot inverse's denominator through every entry. Only variable
// values, bounds, and pivot steps (theta) are general rationals.
//
// The tableau is cross-linked sparse vectors, not maps: each row is a slice
// of (column, numerator) entries, each column keeps a use-list of (row,
// position) back-references, and the two sides carry mutual positions so
// insertion and deletion are O(1) swap-removes with pointer fixups. Random
// access during row edits goes through a generation-stamped dense
// accumulator instead of hashing (a map-based tableau spent over half its
// time in runtime map iteration and hashing). Rows and their coefficients
// come from a reusable arena (warm.go), so pivoting stops paying allocator
// cost once the workspace is warm.

// rent is one row entry: numerator v on column col. cpos is the index of
// the entry's mirror in cols[col], maintained by addEntry/delEntry; it is
// meaningless (and unused) while a row is detached from the tableau.
type rent struct {
	col  int32
	cpos int32
	v    *num
}

// cent is one column use-list entry: the basic variable whose row mentions
// this column, and the position of the rent inside that row.
type cent struct {
	row  int32
	rpos int32
}

// srow is an installed row: unordered entries, the shared positive dyadic
// denominator, and the denominator bit-length at the last content-reduction
// attempt (hysteresis so irreducible rows retry geometrically, not every
// pivot).
type srow struct {
	ent     []rent
	den     num
	lastRed int32
}

// bound is a (possibly absent) variable bound together with the SAT literal
// whose assertion installed it — the explanation used in theory conflicts.
// A bound's val is write-once: bounds are only ever created whole, never
// mutated, so the by-value copies on the backtracking trail may share the
// val's promoted rat pointer safely.
type bound struct {
	val    num
	lit    int
	active bool
}

type simplex struct {
	n       int
	lower   []bound
	upper   []bound
	val     []num
	isBasic []bool
	// rowv[b] for basic b: x_b = (sum n_k x_k) / den. rowv[v].ent is nil
	// for nonbasic v.
	rowv []srow
	// cols[j] lists every basic row whose row mentions nonbasic j, with the
	// entry's position for O(1) numerator access. The objective row, when
	// live, appears in use-lists under the sentinel row index objRowID.
	cols [][]cent

	// objRow is the objective expressed over the current nonbasic set, as a
	// common-denominator row registered in the column use-lists under
	// objRowID. Pivots keep it current exactly like any other user row, so
	// successive minimize calls skip the O(|obj| * row) rebuild; it is never
	// a pivot row itself (the objective has no bounds to violate, so it can
	// never leave a basis it was never in). objSaved remembers the objective
	// the row was built for, to rebuild on a changed objective.
	objRow   srow
	objLive  bool
	objSaved []linTerm

	// Generation-stamped dense accumulator giving O(1) col -> entry-index
	// lookups while editing one row. A mark is valid when accGen[col] equals
	// gen; bumpGen invalidates all marks at once.
	accIdx []int32
	accGen []uint32
	gen    uint32

	// Workspace: arena-backed coefficients and recycled row slices, shared
	// across solver instances through a WarmStart handle.
	arena   *numArena
	rowpool *rowPool
	// nst owns the dyadic fast path's counters and promoted-path scratch.
	nst numStats
	// pivots counts basis exchanges (tableau pivots), the unit of simplex
	// work the profiling harness attributes cost to.
	pivots int64
	// nrows tracks the number of installed rows (basic variables).
	nrows int

	// t1..t4, dscr are scratch values for the hot loops; reusing them
	// recycles their promoted allocations. g1, g2 are content-GCD scratch.
	t1, t2, t3, t4 num
	dscr           num
	one            num
	g1, g2         big.Int

	// bound trail for backtracking.
	trail    []trailEntry
	levelLim []int

	// needCheck is set when a bound install (or a failed check) may have
	// left some variable outside its bounds; while false, check is a no-op.
	// Bound retraction only relaxes, so backtracking never sets it.
	needCheck bool
	// dirty lists variables whose bounds were installed since the last
	// check. Clamping a nonbasic variable into its bounds propagates the
	// delta through every row mentioning it, so it is deferred to check
	// time: bounds asserted and backtracked between checks (the vast
	// majority under DPLL(T) search) never touch the tableau at all.
	dirty []int

	// suspects is a bitset of the basic variables whose value or bound
	// moved since check last saw them within their bounds. Every basic
	// variable outside it is within its bounds, so its least violated
	// member is the least violated basic variable overall, the one Bland's
	// rule picks.
	suspects []uint64

	// debugStrict, when true, validates tableau invariants after mutations
	// (test-only; very slow).
	debugStrict bool
}

type trailEntry struct {
	v    int
	isUp bool
	prev bound
}

func newSimplex(ws *WarmStart) *simplex {
	if ws == nil {
		ws = NewWarmStart()
	} else {
		ws.reset()
	}
	s := &simplex{
		arena:   &ws.arena,
		rowpool: &ws.rows,
	}
	s.one.n, s.one.exp = 1, 0
	return s
}

func ratOf(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }

// addVar creates a fresh unbounded variable with value 0.
func (s *simplex) addVar() int {
	v := s.n
	s.n++
	s.lower = append(s.lower, bound{})
	s.upper = append(s.upper, bound{})
	s.val = append(s.val, num{})
	s.isBasic = append(s.isBasic, false)
	s.rowv = append(s.rowv, srow{})
	s.cols = append(s.cols, nil)
	s.accIdx = append(s.accIdx, 0)
	s.accGen = append(s.accGen, 0)
	if v%64 == 0 {
		s.suspects = append(s.suspects, 0)
	}
	return v
}

// suspect marks basic variable v for check's violation scan.
func (s *simplex) suspect(v int) { s.suspects[v/64] |= 1 << (v % 64) }

// bumpGen invalidates every accumulator mark in O(1) (amortized; the
// uint32 wraparound clear runs once per 4 billion bumps).
func (s *simplex) bumpGen() {
	s.gen++
	if s.gen == 0 {
		clear(s.accGen)
		s.gen = 1
	}
}

// markRow loads a detached row's entries into the accumulator under a fresh
// generation, so scratchAdd can random-access it.
func (s *simplex) markRow(row []rent) {
	s.bumpGen()
	for i := range row {
		k := row[i].col
		s.accIdx[k] = int32(i)
		s.accGen[k] = s.gen
	}
}

// scratchAdd adds delta to detached row's col-k entry, creating or
// swap-removing the entry as needed. The accumulator must hold current
// marks for row (markRow, maintained incrementally here).
func (s *simplex) scratchAdd(row *[]rent, k int32, delta *num) {
	if s.accGen[k] == s.gen {
		cur := (*row)[s.accIdx[k]].v
		s.nst.add(cur, cur, delta)
		if cur.isZero() {
			i := s.accIdx[k]
			last := int32(len(*row) - 1)
			if i != last {
				me := (*row)[last]
				(*row)[i] = me
				s.accIdx[me.col] = i
			}
			*row = (*row)[:last]
			s.accGen[k] = 0
			s.arena.put(cur)
		}
		return
	}
	if delta.isZero() {
		return
	}
	nv := s.arena.get()
	nv.set(delta)
	s.accIdx[k] = int32(len(*row))
	s.accGen[k] = s.gen
	*row = append(*row, rent{col: k, v: nv})
}

// substituteInto adds c * x_v to a detached common-denominator row,
// expanding x_v through its defining row if v is basic: the detached row is
// rescaled by x_v's denominator so every stored numerator stays dyadic.
// Accumulator marks must be current for row.
func (s *simplex) substituteInto(row *[]rent, den *num, v int, c *num) {
	if c.isZero() {
		return
	}
	if !s.isBasic[v] {
		s.nst.mul(&s.t2, c, den)
		s.scratchAdd(row, int32(v), &s.t2)
		return
	}
	rv := &s.rowv[v]
	s.t3.set(den) // D_old
	if !rv.den.isOne() {
		// Rescale the detached row onto the combined denominator. Network
		// rows keep a unit denominator, so this O(|row|) pass is rare.
		for i := range *row {
			s.nst.mul((*row)[i].v, (*row)[i].v, &rv.den)
		}
		s.nst.mul(den, den, &rv.den) // stays positive: both dens are
	}
	s.nst.mul(&s.t3, &s.t3, c) // c * D_old
	for i := range rv.ent {
		s.nst.mul(&s.t2, &s.t3, rv.ent[i].v)
		s.scratchAdd(row, rv.ent[i].col, &s.t2)
	}
}

// defineSlack creates a variable constrained to equal the given expression
// (a structural equality, never retracted). Terms are substituted in slice
// order, which fixes the row's entry order.
func (s *simplex) defineSlack(expr []linTerm) int {
	sl := s.addVar()
	row := s.rowpool.get()
	var dn num
	dn.set(&s.one)
	s.bumpGen()
	var cn num
	for _, t := range expr {
		s.nst.setFloat(&cn, t.c)
		s.substituteInto(&row, &dn, int(t.v), &cn)
	}
	for i := range row {
		s.nst.mul(&s.t1, row[i].v, &s.val[row[i].col])
		s.nst.add(&s.val[sl], &s.val[sl], &s.t1)
	}
	s.nst.quo(&s.val[sl], &s.val[sl], &dn)
	s.installRow(sl, row, &dn)
	s.maybeReduce(&s.rowv[sl])
	s.debugAfter("defineSlack")
	return sl
}

// objRowID is the sentinel row index identifying the objective row in
// column use-lists: a use-list citation it can satisfy without a basic
// variable backing it.
const objRowID = -1

// rowRef resolves a use-list row index to its srow: basic b's installed row,
// or the objective row for the objRowID sentinel.
func (s *simplex) rowRef(b int) *srow {
	if b < 0 {
		return &s.objRow
	}
	return &s.rowv[b]
}

// addEntry appends a numerator to row b (a basic row or objRowID) and
// mirrors it in the column use-list, taking ownership of v.
func (s *simplex) addEntry(b int, k int32, v *num) {
	r := s.rowRef(b)
	r.ent = append(r.ent, rent{col: k, cpos: int32(len(s.cols[k])), v: v})
	s.cols[k] = append(s.cols[k], cent{row: int32(b), rpos: int32(len(r.ent) - 1)})
}

// delEntry swap-removes entry i from row b (a basic row or objRowID),
// unlinking its column mirror and fixing the back-references of both swapped
// survivors. It also repairs the accumulator index of the entry moved into
// slot i (a no-op when no marks are live). Returns the removed numerator,
// which the caller owns.
func (s *simplex) delEntry(b, i int) *num {
	r := s.rowRef(b)
	e := r.ent[i]
	cl := s.cols[e.col]
	if last := int32(len(cl) - 1); e.cpos != last {
		moved := cl[last]
		cl[e.cpos] = moved
		s.rowRef(int(moved.row)).ent[moved.rpos].cpos = e.cpos
	}
	s.cols[e.col] = cl[:len(cl)-1]
	if last := len(r.ent) - 1; i != last {
		me := r.ent[last]
		r.ent[i] = me
		s.cols[me.col][me.cpos].rpos = int32(i)
		s.accIdx[me.col] = int32(i)
	}
	r.ent = r.ent[:len(r.ent)-1]
	return e.v
}

// installRow makes b basic with the given detached row and denominator,
// creating the column mirrors. Takes ownership of the slice and its
// numerators; den is copied.
func (s *simplex) installRow(b int, row []rent, den *num) {
	for i := range row {
		k := row[i].col
		row[i].cpos = int32(len(s.cols[k]))
		s.cols[k] = append(s.cols[k], cent{row: int32(b), rpos: int32(i)})
	}
	r := &s.rowv[b]
	r.ent = row
	r.den.set(den)
	r.lastRed = 0
	s.isBasic[b] = true
	s.nrows++
}

// detachRow unlinks basic b's row from the tableau (column mirrors removed,
// b no longer basic) but keeps the entry slice and its numerators alive,
// returning them to the caller. The denominator stays readable in
// s.rowv[b].den until the slot is reinstalled.
func (s *simplex) detachRow(b int) []rent {
	r := s.rowv[b].ent
	for i := range r {
		e := &r[i] // through the slice: earlier unlinks may fix our cpos
		cl := s.cols[e.col]
		if last := int32(len(cl) - 1); e.cpos != last {
			moved := cl[last]
			cl[e.cpos] = moved
			s.rowRef(int(moved.row)).ent[moved.rpos].cpos = e.cpos
		}
		s.cols[e.col] = cl[:len(cl)-1]
	}
	s.rowv[b].ent = nil
	s.isBasic[b] = false
	s.nrows--
	return r
}

// removeRow uninstalls basic b's row, returning the slice and its
// numerators to the workspace pools.
func (s *simplex) removeRow(b int) {
	r := s.detachRow(b)
	for i := range r {
		s.arena.put(r[i].v)
	}
	s.rowpool.put(r)
}

// rowNum returns basic b's numerator on column j (the coefficient is
// rowNum/den), or nil.
func (s *simplex) rowNum(b, j int) *num {
	for _, ce := range s.cols[j] {
		if int(ce.row) == b {
			return s.rowv[b].ent[ce.rpos].v
		}
	}
	return nil
}

// rowReduceBits is the denominator bit-length at which a row becomes a
// candidate for content reduction. Near-network pivots (numerator ±2^k)
// never grow the denominator's odd part, so most rows never reach it.
const rowReduceBits = 128

// maybeReduce divides a common-denominator row by the GCD of its
// denominator and all numerators, when the denominator has grown enough
// since the last attempt to be worth the scan. The early exit on gcd 1
// makes failed attempts cost one short GCD in the common all-±2^k case.
func (s *simplex) maybeReduce(r *srow) {
	if r.den.kind == kRat {
		return // ablation mode: values live in big.Rat, which self-reduces
	}
	// Shared powers of two: rescaling a row by n_j = m*2^e on every pivot
	// adds e to each entry and the denominator alike, and that common
	// factor compounds (doubling through later pivots) until the exponent
	// guard trips. Pinning the denominator's exponent at zero cancels it;
	// entry exponents then track the true coefficient scale, which is
	// bounded by the input data.
	if d := r.den.exp; d != 0 {
		r.den.exp = 0
		for i := range r.ent {
			r.ent[i].v.exp -= d
		}
	}
	bl := int32(r.den.bitLen())
	if bl < rowReduceBits || bl < r.lastRed+96 {
		return
	}
	g := r.den.mantAbs(&s.g1)
	for i := range r.ent {
		if g.BitLen() <= 1 {
			break
		}
		g = s.g1.GCD(nil, nil, g, r.ent[i].v.mantAbs(&s.g2))
	}
	if g.BitLen() > 1 {
		s.nst.divOdd(&r.den, g)
		for i := range r.ent {
			s.nst.divOdd(r.ent[i].v, g)
		}
	}
	r.lastRed = int32(r.den.bitLen())
}

// pushLevel marks a backtrack point aligned with a SAT decision level.
func (s *simplex) pushLevel() { s.levelLim = append(s.levelLim, len(s.trail)) }

// popLevels undoes the most recent n levels of bound assertions.
func (s *simplex) popLevels(n int) {
	for ; n > 0; n-- {
		if len(s.levelLim) == 0 {
			return
		}
		lim := s.levelLim[len(s.levelLim)-1]
		s.levelLim = s.levelLim[:len(s.levelLim)-1]
		for len(s.trail) > lim {
			e := s.trail[len(s.trail)-1]
			s.trail = s.trail[:len(s.trail)-1]
			if e.isUp {
				s.upper[e.v] = e.prev
			} else {
				s.lower[e.v] = e.prev
			}
		}
	}
}

// assertUpper installs x_v <= c justified by lit. It returns (conflict,
// false) when the new bound immediately contradicts the lower bound.
func (s *simplex) assertUpper(v int, c float64, lit int) ([]int, bool) {
	var cr num
	s.nst.setFloat(&cr, c)
	if s.upper[v].active && s.nst.cmp(&s.upper[v].val, &cr) <= 0 {
		return nil, true // existing bound is at least as strong
	}
	if s.lower[v].active && s.nst.cmp(&cr, &s.lower[v].val) < 0 {
		return explain(lit, s.lower[v].lit), false
	}
	s.trail = append(s.trail, trailEntry{v: v, isUp: true, prev: s.upper[v]})
	s.upper[v] = bound{val: cr, lit: lit, active: true}
	s.boundMoved(v)
	s.debugAfter("assertUpper")
	return nil, true
}

// assertLower installs x_v >= c justified by lit.
func (s *simplex) assertLower(v int, c float64, lit int) ([]int, bool) {
	var cr num
	s.nst.setFloat(&cr, c)
	if s.lower[v].active && s.nst.cmp(&s.lower[v].val, &cr) >= 0 {
		return nil, true
	}
	if s.upper[v].active && s.nst.cmp(&cr, &s.upper[v].val) > 0 {
		return explain(lit, s.upper[v].lit), false
	}
	s.trail = append(s.trail, trailEntry{v: v, isUp: false, prev: s.lower[v]})
	s.lower[v] = bound{val: cr, lit: lit, active: true}
	s.boundMoved(v)
	s.debugAfter("assertLower")
	return nil, true
}

// boundMoved records a tightened bound of v: a basic variable becomes a
// suspect, a nonbasic one is clamped at the next check.
func (s *simplex) boundMoved(v int) {
	s.needCheck = true
	if s.isBasic[v] {
		s.suspect(v)
	} else {
		s.dirty = append(s.dirty, v)
	}
}

func explain(lits ...int) []int {
	var out []int
	for _, l := range lits {
		if l >= 0 {
			out = append(out, l)
		}
	}
	return out
}

// updateNonbasic sets a nonbasic variable's value and propagates through the
// tableau. v may point at a bound's value; it is copied, never aliased.
func (s *simplex) updateNonbasic(j int, v *num) {
	s.nst.sub(&s.t2, v, &s.val[j])
	if s.t2.isZero() {
		return
	}
	for _, ce := range s.cols[j] {
		if ce.row < 0 {
			continue // the objective row tracks no value
		}
		r := &s.rowv[ce.row]
		s.nst.mul(&s.t1, r.ent[ce.rpos].v, &s.t2)
		s.nst.quo(&s.t1, &s.t1, &r.den)
		s.nst.add(&s.val[ce.row], &s.val[ce.row], &s.t1)
		s.suspect(int(ce.row))
	}
	s.val[j].set(v)
}

// pivotAndUpdate moves basic b to value v by adjusting nonbasic j, then
// pivots so j becomes basic and b nonbasic (Dutertre & de Moura, Fig. 3).
func (s *simplex) pivotAndUpdate(b, j int, v *num) {
	a := s.rowNum(b, j)
	theta := &s.t3 // theta = (v - val[b]) * D_b / n_bj
	s.nst.sub(theta, v, &s.val[b])
	s.nst.mul(theta, theta, &s.rowv[b].den)
	s.nst.quo(theta, theta, a)
	s.val[b].set(v)
	s.nst.add(&s.val[j], &s.val[j], theta)
	for _, ce := range s.cols[j] {
		if k := int(ce.row); k >= 0 && k != b {
			r := &s.rowv[k]
			s.nst.mul(&s.t1, r.ent[ce.rpos].v, theta)
			s.nst.quo(&s.t1, &s.t1, &r.den)
			s.nst.add(&s.val[k], &s.val[k], &s.t1)
			s.suspect(k)
		}
	}
	s.pivot(b, j)
	s.suspect(j)
	s.debugAfter("pivotAndUpdate")
}

// pivot exchanges basic b with nonbasic j. With common-denominator rows
// this is fraction-free: b's row x_b = (sum n_k x_k)/D_b solves for
//
//	x_j = (D_b x_b - sum_{k != j} n_k x_k) / n_j
//
// so the new row is a sign flip with denominator n_j, and substituting into
// a user row (denominator D_u, numerator m on x_j) multiplies that row
// through by n_j and folds in integer products — no division anywhere, and
// for the dominant ±2^k pivots no bit growth either.
func (s *simplex) pivot(b, j int) {
	s.pivots++
	// Detach b's row first (numerators stay alive): cols[j] then lists
	// only the user rows.
	rowB := s.detachRow(b)
	db := &s.rowv[b].den // still valid: the slot is not reinstalled below
	ji := -1
	for i := range rowB {
		if int(rowB[i].col) == j {
			ji = i
			break
		}
	}
	if ji < 0 || rowB[ji].v.isZero() {
		panic("smt: pivot on zero coefficient")
	}
	nj := rowB[ji].v
	// Substitute into every user row. Processing the last use first means
	// delEntry pops cols[j] without a swap, and cancellations inside a
	// user row only ever touch other columns (x_j's expansion mentions b,
	// never j).
	for len(s.cols[j]) > 0 {
		ce := s.cols[j][len(s.cols[j])-1]
		u := int(ce.row)
		mj := s.delEntry(u, int(ce.rpos))
		ru := s.rowRef(u)
		// Scale the user row through by n_j (skipped when n_j == 1,
		// the common case for unit-coefficient slack pivots)...
		if !nj.isOne() {
			for i := range ru.ent {
				s.nst.mul(ru.ent[i].v, ru.ent[i].v, nj)
			}
			s.nst.mul(&ru.den, &ru.den, nj)
		}
		// ...then fold in m_j * (b's row solved for x_j): +m_j*D_b on
		// column b (which no user row mentions yet — b was basic a moment
		// ago) and -m_j*n_k elsewhere.
		s.markRow(ru.ent)
		for i := -1; i < len(rowB); i++ {
			var k int32
			if i < 0 {
				k = int32(b)
				s.nst.mul(&s.t1, mj, db)
			} else {
				if i == ji {
					continue
				}
				k = rowB[i].col
				s.nst.mul(&s.t1, mj, rowB[i].v)
				s.t1.neg()
			}
			if s.t1.isZero() {
				continue
			}
			if s.accGen[k] == s.gen {
				cur := ru.ent[s.accIdx[k]].v
				s.nst.add(cur, cur, &s.t1)
				if cur.isZero() {
					s.arena.put(s.delEntry(u, int(s.accIdx[k])))
					s.accGen[k] = 0
				}
				continue
			}
			nv := s.arena.get()
			nv.set(&s.t1)
			s.accIdx[k] = int32(len(ru.ent))
			s.accGen[k] = s.gen
			s.addEntry(u, k, nv)
		}
		s.arena.put(mj)
		if ru.den.sign() < 0 { // keep the denominator positive
			ru.den.neg()
			for i := range ru.ent {
				ru.ent[i].v.neg()
			}
		}
		s.maybeReduce(ru)
	}
	// Build x_j's own row in place from rowB: negate every numerator, the
	// pivot slot becomes the x_b term (numerator D_b), denominator n_j.
	s.dscr.set(nj)
	for i := range rowB {
		if i != ji {
			rowB[i].v.neg()
		}
	}
	rowB[ji].col = int32(b)
	rowB[ji].v.set(db)
	if s.dscr.sign() < 0 {
		s.dscr.neg()
		for i := range rowB {
			rowB[i].v.neg()
		}
	}
	s.installRow(j, rowB, &s.dscr)
	s.maybeReduce(&s.rowv[j])
}

// check restores feasibility, returning (nil, true) on success or a theory
// conflict — the literals of the bounds forming an infeasible constraint —
// on failure. Bland's rule (least index) guarantees termination under exact
// arithmetic. A no-op unless a bound moved since the last successful check.
func (s *simplex) check() ([]int, bool) {
	if !s.needCheck {
		return nil, true
	}
	// Deferred clamp: move every dirty nonbasic variable inside its bounds
	// (basic violations are the pivot loop's job). Variables whose bounds
	// were asserted and already backtracked clamp against the restored
	// bounds, which is a no-op or a legal move either way.
	for _, v := range s.dirty {
		if s.isBasic[v] {
			continue // became basic in a pivot, which made it a suspect
		}
		if s.lower[v].active && s.nst.cmp(&s.val[v], &s.lower[v].val) < 0 {
			s.updateNonbasic(v, &s.lower[v].val)
		} else if s.upper[v].active && s.nst.cmp(&s.val[v], &s.upper[v].val) > 0 {
			s.updateNonbasic(v, &s.upper[v].val)
		}
	}
	s.dirty = s.dirty[:0]
	for {
		// Find the smallest-index basic variable violating a bound: the
		// least violated suspect. Suspects found within their bounds (or
		// no longer basic) are cleared.
		b := -1
		var target *num
		var belowLower bool
	scan:
		for w, word := range s.suspects {
			for ; word != 0; word &= word - 1 {
				v := w*64 + bits.TrailingZeros64(word)
				if s.isBasic[v] {
					if s.lower[v].active && s.nst.cmp(&s.val[v], &s.lower[v].val) < 0 {
						b, target, belowLower = v, &s.lower[v].val, true
						break scan
					}
					if s.upper[v].active && s.nst.cmp(&s.val[v], &s.upper[v].val) > 0 {
						b, target, belowLower = v, &s.upper[v].val, false
						break scan
					}
				}
				s.suspects[w] &^= 1 << (v % 64)
			}
		}
		if b < 0 {
			if s.debugStrict {
				if msg := s.debugCheckBounds(); msg != "" {
					panic("smt: check left bounds violated: " + msg)
				}
			}
			s.needCheck = false
			return nil, true
		}
		j := s.findPivot(b, belowLower)
		if j < 0 {
			return s.explainRow(b, belowLower), false
		}
		s.pivotAndUpdate(b, j, target)
	}
}

// findPivot locates the smallest-index nonbasic variable in b's row that
// can move in the direction required to fix b's violation (Bland's rule).
// Signs read directly off the numerators: the shared denominator is
// positive by invariant.
func (s *simplex) findPivot(b int, belowLower bool) int {
	best := -1
	row := s.rowv[b].ent
	for i := range row {
		j, a := int(row[i].col), row[i].v
		sign := a.sign()
		var canMove bool
		if belowLower {
			// Need to increase x_b: increase x_j if a > 0, decrease if a < 0.
			canMove = (sign > 0 && s.canIncrease(j)) || (sign < 0 && s.canDecrease(j))
		} else {
			canMove = (sign > 0 && s.canDecrease(j)) || (sign < 0 && s.canIncrease(j))
		}
		if canMove && (best < 0 || j < best) {
			best = j
		}
	}
	return best
}

func (s *simplex) canIncrease(j int) bool {
	return !s.upper[j].active || s.nst.cmp(&s.val[j], &s.upper[j].val) < 0
}

func (s *simplex) canDecrease(j int) bool {
	return !s.lower[j].active || s.nst.cmp(&s.val[j], &s.lower[j].val) > 0
}

// explainRow builds the conflict explanation for a stuck violated basic
// variable: its violated bound plus the binding bounds of every nonbasic
// variable in its row.
func (s *simplex) explainRow(b int, belowLower bool) []int {
	var lits []int
	addLit := func(l int) {
		if l >= 0 {
			lits = append(lits, l)
		}
	}
	if belowLower {
		addLit(s.lower[b].lit)
	} else {
		addLit(s.upper[b].lit)
	}
	row := s.rowv[b].ent
	for i := range row {
		j, a := int(row[i].col), row[i].v
		if (belowLower && a.sign() > 0) || (!belowLower && a.sign() < 0) {
			addLit(s.upper[j].lit)
		} else {
			addLit(s.lower[j].lit)
		}
	}
	return lits
}

// minimize optimizes sum(obj_v * x_v) subject to the current bounds, leaving
// the solver at an optimal feasible vertex, or returns an error when the
// objective is unbounded below. The solver must be feasible on entry (call
// check first). At the optimum, objValue reads the exact minimum and
// dualCore its certificate.
//
// The objective lives in the tableau as a persistent common-denominator row
// (objRow), registered in the column use-lists under objRowID so every pivot
// rewrites it over the new nonbasic set alongside the real user rows — a
// rescale plus integer multiply-adds, like the tableau substitution itself.
// It is never pivoted ON (it has no bounds, so it is never a leaving row),
// which keeps its wide-spanning coefficients — scheduling objectives mix
// magnitudes across nine orders — out of the otherwise ±1 (network matrix)
// constraint rows. Building it over the nonbasic set costs
// O(|obj| * row length); keeping it pivot-maintained amortizes that build
// across every minimize call on the same objective instead of paying it
// per call.
//
// Successive minimize calls warm-start from the previous optimal basis: the
// tableau (objective row included) persists across Minimize's
// objective-tightening iterations, so after the DPLL(T) search nudges a few
// bounds the reduced-cost loop typically needs only a handful of pivots to
// re-reach the optimum.
func (s *simplex) minimize(obj []linTerm) error {
	s.ensureObjRow(obj)
	var tMax, t num
	for iter := 0; ; iter++ {
		if iter > 1_000_000 {
			return fmt.Errorf("smt: objective minimization failed to converge")
		}
		// Entering variable: smallest index with improving direction
		// (Bland's rule, guarantees termination). The objective's shared
		// denominator is positive, so numerator signs are reduced-cost
		// signs. Re-read the entry slice each round: pivots rewrite it.
		cz := s.objRow.ent
		j, dir := -1, 0
		for i := range cz {
			k, c := int(cz[i].col), cz[i].v
			if s.isBasic[k] {
				panic("smt: objective row mentions basic variable")
			}
			var d int
			switch {
			case c.sign() < 0 && s.canIncrease(k):
				d = 1
			case c.sign() > 0 && s.canDecrease(k):
				d = -1
			default:
				continue
			}
			if j < 0 || k < j {
				j, dir = k, d
			}
		}
		if j < 0 {
			if s.debugStrict {
				if msg := s.debugCheckBounds(); msg != "" {
					panic("smt: minimize left bounds violated: " + msg)
				}
				if msg := s.debugCheckInvariants(); msg != "" {
					panic("smt: minimize broke invariants: " + msg)
				}
			}
			return nil
		}
		// Ratio test: the largest step t >= 0 in direction dir before x_j or
		// a dependent basic variable hits a bound.
		hasT := false // !hasT = unbounded so far
		limB := -1
		var limTarget *num
		if dir > 0 && s.upper[j].active {
			s.nst.sub(&tMax, &s.upper[j].val, &s.val[j])
			hasT = true
		} else if dir < 0 && s.lower[j].active {
			s.nst.sub(&tMax, &s.val[j], &s.lower[j].val)
			hasT = true
		}
		for _, ce := range s.cols[j] {
			b := int(ce.row)
			if b < 0 {
				continue // the objective row has no bounds to hit
			}
			r := &s.rowv[b]
			a := r.ent[ce.rpos].v // d x_b / dt = dir * a / D_b, D_b > 0
			rateSign := a.sign() * dir
			var tgt *num
			if rateSign > 0 && s.upper[b].active {
				s.nst.sub(&t, &s.upper[b].val, &s.val[b])
				tgt = &s.upper[b].val
			} else if rateSign < 0 && s.lower[b].active {
				s.nst.sub(&t, &s.lower[b].val, &s.val[b])
				tgt = &s.lower[b].val
			} else {
				continue
			}
			// t = (bound - val) * D_b / (a * dir)
			s.nst.mul(&t, &t, &r.den)
			s.nst.quo(&t, &t, a)
			if dir < 0 {
				t.neg()
			}
			better := !hasT
			if hasT {
				switch c := s.nst.cmp(&t, &tMax); {
				case c < 0:
					better = true
				case c == 0:
					// Tied blocking rows: Bland's smallest index.
					better = limB < 0 || b < limB
				}
			}
			if better {
				tMax.set(&t)
				limB, limTarget = b, tgt
				hasT = true
			}
		}
		if !hasT {
			return fmt.Errorf("smt: objective unbounded below")
		}
		if tMax.sign() < 0 {
			tMax.setZero()
		}
		if limB < 0 {
			// x_j slides to its own bound; basis unchanged.
			nv := &s.t4
			if dir > 0 {
				s.nst.add(nv, &tMax, &s.val[j])
			} else {
				s.nst.sub(nv, &s.val[j], &tMax)
			}
			s.updateNonbasic(j, nv)
			continue
		}
		// Basic limB hits its bound: pivot j in, limB out. The pivot's
		// user-row loop rewrites the objective row over the new nonbasic
		// set along with everything else that mentioned j.
		s.pivotAndUpdate(limB, j, limTarget)
	}
}

// ensureObjRow (re)builds the pivot-maintained objective row when none is
// live or the objective changed; otherwise the registered row is already
// expressed over the current nonbasic set and there is nothing to do. The
// row is built in the objective's (ascending Var) order: its entry order is
// the literal order of every dual core minimize returns.
func (s *simplex) ensureObjRow(obj []linTerm) {
	if s.objLive && slices.Equal(s.objSaved, obj) {
		return
	}
	s.clearObjRow()
	row := s.rowpool.get()
	var den num
	den.set(&s.one)
	s.bumpGen()
	var cn num
	for _, t := range obj {
		s.nst.setFloat(&cn, t.c)
		s.substituteInto(&row, &den, int(t.v), &cn)
	}
	for i := range row {
		k := row[i].col
		row[i].cpos = int32(len(s.cols[k]))
		s.cols[k] = append(s.cols[k], cent{row: objRowID, rpos: int32(i)})
	}
	s.objRow.ent = row
	s.objRow.den.set(&den)
	s.objRow.lastRed = 0
	s.maybeReduce(&s.objRow)
	s.objLive = true
	s.objSaved = slices.Clone(obj)
}

// clearObjRow unregisters the objective row and returns its storage to the
// workspace pools.
func (s *simplex) clearObjRow() {
	if !s.objLive {
		return
	}
	r := s.objRow.ent
	for i := range r {
		e := &r[i] // through the slice: earlier unlinks may fix our cpos
		cl := s.cols[e.col]
		if last := int32(len(cl) - 1); e.cpos != last {
			moved := cl[last]
			cl[e.cpos] = moved
			s.rowRef(int(moved.row)).ent[moved.rpos].cpos = e.cpos
		}
		s.cols[e.col] = cl[:len(cl)-1]
		s.arena.put(e.v)
	}
	s.rowpool.put(r)
	s.objRow.ent = nil
	s.objLive = false
	s.objSaved = nil
}

// dualCore returns the certificate of the optimum minimize left the
// simplex at: every nonbasic variable with a nonzero reduced cost sits at
// the bound blocking further improvement, and the literals of those bounds
// jointly imply obj >= optimum — the theory core that explains an incumbent
// bound violation. Literal order follows the objective row.
func (s *simplex) dualCore() []int {
	var core []int
	for _, e := range s.objRow.ent {
		var l int
		switch k := int(e.col); e.v.sign() {
		case -1:
			l = s.upper[k].lit
		case 1:
			l = s.lower[k].lit
		default:
			continue
		}
		if l >= 0 {
			core = append(core, l)
		}
	}
	return core
}

// objEstimate returns the objective at the current point in float64, with
// a bound on its absolute rounding error.
func (s *simplex) objEstimate(obj []linTerm) (est, errBound float64) {
	var mag float64
	for _, t := range obj {
		p := t.c * s.val[int(t.v)].float()
		est += p
		mag += math.Abs(p)
	}
	// Each term and partial sum rounds by at most 2^-53 relative, and no
	// objective has anywhere near 2^40 terms: 1e-12 of the magnitude sum
	// covers the accumulated error with room to spare.
	return est, mag * 1e-12
}

// objValue returns the objective at the current point, exactly.
func (s *simplex) objValue(obj []linTerm) *big.Rat {
	var acc, cn, tmp num
	for _, t := range obj {
		s.nst.setFloat(&cn, t.c)
		s.nst.mul(&tmp, &cn, &s.val[int(t.v)])
		s.nst.add(&acc, &acc, &tmp)
	}
	return acc.ratCopy()
}

// value returns the current value of variable v.
func (s *simplex) value(v int) float64 { return s.val[v].float() }

// Debug helpers (test-only) --------------------------------------------------

func (s *simplex) debugAfter(op string) {
	if !s.debugStrict {
		return
	}
	if msg := s.debugCheckInvariants(); msg != "" {
		panic(fmt.Sprintf("smt: invariant broken after %s: %s", op, msg))
	}
}

// debugCheckInvariants verifies that every basic variable's value equals its
// row evaluated at the nonbasic values, that denominators are positive, and
// that the row/column cross-links are mutually consistent.
func (s *simplex) debugCheckInvariants() string {
	var st numStats // private scratch: must not disturb fast-path counters
	var sum, tmp num
	for b := 0; b < s.n; b++ {
		r := &s.rowv[b]
		if !s.isBasic[b] {
			if r.ent != nil {
				return fmt.Sprintf("nonbasic %d has an installed row", b)
			}
			continue
		}
		if r.den.sign() <= 0 {
			return fmt.Sprintf("row %d has non-positive denominator %s", b, r.den.String())
		}
		sum.setZero()
		for i := range r.ent {
			e := r.ent[i]
			j := int(e.col)
			if s.isBasic[j] {
				return fmt.Sprintf("row %d references basic var %d", b, j)
			}
			if int(e.cpos) >= len(s.cols[j]) {
				return fmt.Sprintf("row %d col %d: cpos %d out of range", b, j, e.cpos)
			}
			if m := s.cols[j][e.cpos]; int(m.row) != b || int(m.rpos) != i {
				return fmt.Sprintf("row %d col %d: mirror (%d,%d) != (%d,%d)", b, j, m.row, m.rpos, b, i)
			}
			st.mul(&tmp, e.v, &s.val[j])
			st.add(&sum, &sum, &tmp)
		}
		st.quo(&sum, &sum, &r.den)
		if st.cmp(&sum, &s.val[b]) != 0 {
			return fmt.Sprintf("basic %d: val=%s but row evaluates to %s", b, s.val[b].String(), sum.String())
		}
	}
	if s.objLive {
		r := &s.objRow
		if r.den.sign() <= 0 {
			return fmt.Sprintf("objective row has non-positive denominator %s", r.den.String())
		}
		sum.setZero()
		for i := range r.ent {
			e := r.ent[i]
			j := int(e.col)
			if s.isBasic[j] {
				return fmt.Sprintf("objective row references basic var %d", j)
			}
			if int(e.cpos) >= len(s.cols[j]) {
				return fmt.Sprintf("objective row col %d: cpos %d out of range", j, e.cpos)
			}
			if m := s.cols[j][e.cpos]; int(m.row) != objRowID || int(m.rpos) != i {
				return fmt.Sprintf("objective row col %d: mirror (%d,%d) != (%d,%d)", j, m.row, m.rpos, objRowID, i)
			}
			st.mul(&tmp, e.v, &s.val[j])
			st.add(&sum, &sum, &tmp)
		}
		// The registered row must still evaluate to the objective it was
		// built for.
		st.quo(&sum, &sum, &r.den)
		var want, cn num
		for _, t := range s.objSaved {
			st.setFloat(&cn, t.c)
			st.mul(&tmp, &cn, &s.val[int(t.v)])
			st.add(&want, &want, &tmp)
		}
		if st.cmp(&sum, &want) != 0 {
			return fmt.Sprintf("objective row evaluates to %s, objective is %s", sum.String(), want.String())
		}
	}
	for j := 0; j < s.n; j++ {
		for _, ce := range s.cols[j] {
			b := int(ce.row)
			if b < 0 {
				if !s.objLive {
					return fmt.Sprintf("cols[%d] cites the objective row, which is not live", j)
				}
				if int(ce.rpos) >= len(s.objRow.ent) || int(s.objRow.ent[ce.rpos].col) != j {
					return fmt.Sprintf("cols[%d] cites objective entry %d which does not mention it", j, ce.rpos)
				}
				continue
			}
			if !s.isBasic[b] {
				return fmt.Sprintf("cols[%d] cites non-basic row %d", j, b)
			}
			row := s.rowv[b].ent
			if int(ce.rpos) >= len(row) || int(row[ce.rpos].col) != j {
				return fmt.Sprintf("cols[%d] cites row %d entry %d which does not mention it", j, b, ce.rpos)
			}
		}
	}
	for v := 0; v < s.n; v++ {
		if !s.isBasic[v] || s.suspects[v/64]&(1<<(v%64)) != 0 {
			continue
		}
		if s.lower[v].active && st.cmp(&s.val[v], &s.lower[v].val) < 0 ||
			s.upper[v].active && st.cmp(&s.val[v], &s.upper[v].val) > 0 {
			return fmt.Sprintf("basic %d violates a bound but is no suspect", v)
		}
	}
	return ""
}

// debugCheckBounds reports the first bound violated.
func (s *simplex) debugCheckBounds() string {
	for v := 0; v < s.n; v++ {
		if s.lower[v].active && s.nst.cmp(&s.val[v], &s.lower[v].val) < 0 {
			return fmt.Sprintf("var %d val=%s below lower %s (basic=%v)", v, s.val[v].String(), s.lower[v].val.String(), s.isBasic[v])
		}
		if s.upper[v].active && s.nst.cmp(&s.val[v], &s.upper[v].val) > 0 {
			return fmt.Sprintf("var %d val=%s above upper %s (basic=%v)", v, s.val[v].String(), s.upper[v].val.String(), s.isBasic[v])
		}
	}
	return ""
}
