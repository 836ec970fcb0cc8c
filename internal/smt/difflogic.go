package smt

import "fmt"

// difflogic implements the difference-logic theory tier: an incremental
// solver for conjunctions of atoms x - y <= c, x <= c and x >= c over native
// float64 arithmetic. The scheduling encoding is dominated by exactly these
// atoms (precedences, overlap orderings, horizon bounds, lifetime envelopes),
// so routing them here keeps the exact rational simplex off the DPLL(T) hot
// path entirely — it is consulted only for genuinely multi-term atoms and
// for the joint model/objective step (see Solver.completeCheck).
//
// Representation: the standard constraint graph. Nodes are the real
// variables plus a virtual zero node (node 0) that turns unary bounds into
// differences; the atom x - y <= c becomes the edge y -> x with weight c. A
// conjunction of difference atoms is satisfiable iff the graph has no
// negative cycle, and a valid potential function pot (pot[to] <= pot[from] +
// w for every edge) is both the feasibility certificate and a ready-made
// model: x := pot[x] - pot[zero].
//
// Incrementality: edges are asserted one at a time as the SAT core assigns
// theory literals. An edge already satisfied by the current potentials costs
// O(1). Otherwise the target's potential is lowered and the decrease is
// propagated (SPFA-style relaxation restricted to the affected subgraph);
// reaching the new edge's source again means the edge closed a negative
// cycle, and the cycle's literals — recovered from the relaxation
// predecessors — form the theory conflict. On conflict the tentative
// potential updates are rolled back, so the engine stays consistent with the
// still-asserted set.
//
// Backtracking: edges form a trail aligned with the SAT solver's decision
// levels (pushLevel/popLevels mirror the simplex's protocol). Popping
// removes edges in LIFO order; potentials are kept as-is, which is sound
// because a potential valid for a superset of edges is valid for any subset.

// dlEdge is one asserted difference constraint x_to - x_from <= w, justified
// by the SAT literal lit.
type dlEdge struct {
	from, to int32
	w        float64
	lit      int32
}

// diffLogic is the incremental difference-constraint engine. Node 0 is the
// virtual zero node; real variable v is node v+1 (see dlNode).
type diffLogic struct {
	pot   []float64 // node potentials: pot[to] <= pot[from] + w on every edge
	adj   [][]int32 // outgoing edge indices per node
	edges []dlEdge  // asserted edges in assertion order (the trail)

	levelLim []int // edge-trail size at each decision level

	// Repair scratch, reused across asserts.
	queue   []int32
	inQueue []bool
	pred    []int32   // edge that last lowered the node in the current repair
	queued  []int32   // times the node was queued in the current repair
	touched []int32   // nodes modified by the current repair, in order
	oldPot  []float64 // touched nodes' potentials before the repair

	// Counters surfaced through Solver.TierStats.
	asserts   int64 // edges asserted (after interning, per search branch)
	repairs   int64 // asserts that required potential propagation
	conflicts int64 // negative cycles detected
	rounded   int64 // candidate cycles rejected as float-rounding artifacts
}

// dlNode maps a real variable to its constraint-graph node.
func dlNode(v Var) int32 { return int32(v) + 1 }

func newDiffLogic() *diffLogic {
	d := &diffLogic{}
	d.ensureNode(0)
	return d
}

func (d *diffLogic) ensureNode(n int32) {
	for int32(len(d.pot)) <= n {
		d.pot = append(d.pot, 0)
		d.adj = append(d.adj, nil)
		d.inQueue = append(d.inQueue, false)
		d.pred = append(d.pred, -1)
		d.queued = append(d.queued, 0)
	}
}

// pushLevel marks a backtrack point aligned with a SAT decision level.
func (d *diffLogic) pushLevel() { d.levelLim = append(d.levelLim, len(d.edges)) }

// popLevels undoes the most recent n levels of edge assertions. Potentials
// are untouched: they remain valid for the surviving subset.
func (d *diffLogic) popLevels(n int) {
	for ; n > 0; n-- {
		if len(d.levelLim) == 0 {
			return
		}
		lim := d.levelLim[len(d.levelLim)-1]
		d.levelLim = d.levelLim[:len(d.levelLim)-1]
		for len(d.edges) > lim {
			e := d.edges[len(d.edges)-1]
			d.edges = d.edges[:len(d.edges)-1]
			// Edges were appended to adj[from] in assertion order, so the
			// LIFO pop always removes the adjacency tail.
			a := d.adj[e.from]
			d.adj[e.from] = a[:len(a)-1]
		}
	}
}

// assert installs the edge from -> to (x_to - x_from <= w) justified by lit.
// It returns nil on success, or the literals of a negative cycle through the
// new edge — a minimal inconsistent subset of the asserted constraints —
// when the edge contradicts the active set.
func (d *diffLogic) assert(from, to int32, w float64, lit int) []int {
	d.asserts++
	if from > to {
		d.ensureNode(from)
	} else {
		d.ensureNode(to)
	}
	if d.pot[to] <= d.pot[from]+w {
		d.record(from, to, w, lit)
		return nil
	}
	d.repairs++
	// Tentatively lower pot[to] and propagate the decrease. The graph before
	// this assert had no negative cycle, so the relaxation terminates; if it
	// ever tries to lower pot[from], the path to -> ... -> from plus the new
	// edge is a negative cycle.
	d.touched = d.touched[:0]
	d.oldPot = d.oldPot[:0]
	d.lower(to, d.pot[from]+w, dlViaNew)
	d.queue = append(d.queue[:0], to)
	for qi := 0; qi < len(d.queue); qi++ {
		u := d.queue[qi]
		d.inQueue[u] = false
		pu := d.pot[u]
		for _, ei := range d.adj[u] {
			e := d.edges[ei]
			if d.pot[e.to] <= pu+e.w {
				continue
			}
			if e.to == from {
				if !d.cycleIsNegative(u, ei, w) {
					// Rounding artifact: the candidate cycle's exact weight
					// is non-negative, so the "conflict" came from float
					// error accumulated in the potentials. Abandon the
					// repair and leave the edge unrecorded — the bound is
					// still mirrored in the simplex, which remains the
					// exact authority at the next complete check.
					d.rollback(qi + 1)
					d.rounded++
					return nil
				}
				expl := d.explainCycle(u, ei, to, lit)
				d.rollback(qi + 1)
				d.conflicts++
				return expl
			}
			d.lower(e.to, pu+e.w, ei)
			if !d.inQueue[e.to] {
				if d.queued[e.to]++; d.queued[e.to] >= int32(len(d.pot)) {
					// A FIFO relaxation queues a node at most once per
					// Bellman-Ford pass, so a node queued once per node is
					// circling a cycle of old edges. The asserted set had
					// no negative cycle, so its exact weight is zero and
					// only float rounding makes it look negative — each
					// lap would shave an ulp off its potentials, without
					// end. Treat it like a rounding artifact on a closing
					// cycle.
					d.rollback(qi + 1)
					d.rounded++
					return nil
				}
				d.inQueue[e.to] = true
				d.queue = append(d.queue, e.to)
			}
		}
	}
	d.clearRepair()
	d.record(from, to, w, lit)
	return nil
}

// dlViaNew marks the node lowered directly by the edge being asserted (it is
// not yet on the trail, so it has no index). -1 means "untouched this
// repair" — the first-touch marker lower relies on.
const dlViaNew = int32(-2)

// lower sets pot[n] = v, remembering the previous value (first touch only)
// and the edge responsible, for rollback and cycle reconstruction.
func (d *diffLogic) lower(n int32, v float64, via int32) {
	if d.pred[n] == -1 {
		d.touched = append(d.touched, n)
		d.oldPot = append(d.oldPot, d.pot[n])
	}
	d.pot[n] = v
	d.pred[n] = via
}

// rollback restores the potentials modified by a failed repair and clears
// the predecessor and queue marks; qi is the first still-queued position.
func (d *diffLogic) rollback(qi int) {
	for i, n := range d.touched {
		d.pot[n] = d.oldPot[i]
		d.pred[n] = -1
		d.queued[n] = 0
	}
	for _, n := range d.queue[qi:] {
		d.inQueue[n] = false
	}
	d.queue = d.queue[:0]
	d.touched = d.touched[:0]
	d.oldPot = d.oldPot[:0]
}

// clearRepair resets predecessor marks after a successful repair.
func (d *diffLogic) clearRepair() {
	for _, n := range d.touched {
		d.pred[n] = -1
		d.queued[n] = 0
	}
	d.touched = d.touched[:0]
	d.oldPot = d.oldPot[:0]
}

// cycleIsNegative decides whether the candidate cycle closed by the edge
// being asserted (weight newW) is genuinely negative. Potentials accumulate
// float rounding along relaxation chains, so the detection comparison alone
// can flag exactly-feasible cycles as violated — which would surface as a
// false UNSAT. A clearly negative float sum is trusted; anything near zero
// is re-verified exactly (edge weights are float64s, i.e. exact dyadic
// rationals, so the big.Rat sum is decisive).
func (d *diffLogic) cycleIsNegative(u, closeEdge int32, newW float64) bool {
	sum := newW + d.edges[closeEdge].w
	for n := u; d.pred[n] != dlViaNew; {
		e := d.edges[d.pred[n]]
		sum += e.w
		n = e.from
	}
	if sum < -1e-6 {
		// Float error along a cycle is bounded far below this margin for
		// ns-scale scheduling constants.
		return true
	}
	exact := ratOf(newW)
	exact.Add(exact, ratOf(d.edges[closeEdge].w))
	for n := u; d.pred[n] != dlViaNew; {
		e := d.edges[d.pred[n]]
		exact.Add(exact, ratOf(e.w))
		n = e.from
	}
	return exact.Sign() < 0
}

// explainCycle reconstructs the negative cycle closed by the new edge
// (newLit) when relaxing closeEdge (u -> from): the new edge, closeEdge, and
// the predecessor chain from u back to the new edge's target node.
func (d *diffLogic) explainCycle(u, closeEdge, target int32, newLit int) []int {
	lits := []int{newLit, int(d.edges[closeEdge].lit)}
	for n := u; n != target; {
		ei := d.pred[n]
		e := d.edges[ei]
		lits = append(lits, int(e.lit))
		n = e.from
	}
	return lits
}

// record appends the edge to the trail and the adjacency lists.
func (d *diffLogic) record(from, to int32, w float64, lit int) {
	ei := int32(len(d.edges))
	d.edges = append(d.edges, dlEdge{from: from, to: to, w: w, lit: int32(lit)})
	d.adj[from] = append(d.adj[from], ei)
}

// potential returns the model value of node n relative to the zero node.
func (d *diffLogic) potential(n int32) float64 { return d.pot[n] - d.pot[0] }

// validate reports the first active edge violated by the current potentials
// ("" when the potential function is a valid feasibility certificate).
// Test-only.
func (d *diffLogic) validate() string {
	for i, e := range d.edges {
		if d.pot[e.to] > d.pot[e.from]+e.w {
			return fmt.Sprintf("edge %d (lit %d): pot[%d]=%v > pot[%d]=%v + %v",
				i, e.lit, e.to, d.pot[e.to], e.from, d.pot[e.from], e.w)
		}
	}
	return ""
}
