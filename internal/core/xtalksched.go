package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/device"
	"xtalk/internal/smt"
)

// XtalkConfig configures XtalkSched.
type XtalkConfig struct {
	// Omega is the crosstalk weight factor of Eq. 17: 1 = only crosstalk
	// matters (serialize-like), 0 = only decoherence matters (ParSched-like).
	Omega float64
	// CompactErrorEncoding replaces the paper's powerset error constraints
	// (Eq. 7-8, exponential in |CanOlp|) with an equivalent linear encoding
	// using per-partner lower bounds (sound under minimization because the
	// objective pushes each gate-cost variable down to the max binding
	// bound). Used automatically when |CanOlp(g)| > PowersetCap.
	CompactErrorEncoding bool
	// PowersetCap bounds the powerset size; gates with more overlap
	// candidates fall back to the compact encoding. Default 6.
	PowersetCap int
	// DisableAlignment drops the IBMQ-specific no-partial-overlap
	// constraints (Eq. 11-13), for ablation.
	DisableAlignment bool
	// TieBreak adds a tiny per-ns cost on every start time so the optimum is
	// left-compacted. Default 2^-30 (a one-bit dyadic: exact-rational tableau
	// arithmetic on objective rows stays cheap).
	TieBreak float64
	// MaxConflicts bounds SMT search effort (0 = unlimited).
	MaxConflicts int64
	// Timeout makes the optimization anytime: when it expires the best
	// incumbent schedule found so far is returned (0 = run to optimality).
	Timeout time.Duration
	// DebugAudit enables the SMT solver's model auditing and strict tableau
	// validation (test-only; very slow). This replaces the old
	// SMT_DEBUG_AUDIT environment side-channel.
	DebugAudit bool
	// SumErrorComposition replaces the paper's max rule (Eq. 6: a gate
	// overlapping several crosstalk partners pays only the worst conditional
	// rate) with additive composition (each overlapping partner contributes
	// its excess cost). An ablation of the design choice the paper justifies
	// by "we have not observed significant worsening from triplets". Implies
	// the compact encoding.
	SumErrorComposition bool
	// ForceOverlaps pins overlap indicators to fixed values (keyed by the
	// gate-ID pair, smaller ID first). Test-only: used to brute-force the
	// boolean search space when validating optimality.
	ForceOverlaps map[[2]int]bool
}

// DefaultXtalkConfig returns the paper's default configuration (omega=0.5).
func DefaultXtalkConfig() XtalkConfig {
	return XtalkConfig{Omega: 0.5, PowersetCap: 6, TieBreak: 0x1p-30}
}

// XtalkSched is the paper's crosstalk-adaptive scheduler: it encodes gate
// start times, overlap indicators, crosstalk-dependent gate error costs and
// per-qubit decoherence lifetimes as an SMT optimization (Section 7) and
// extracts the optimal schedule.
type XtalkSched struct {
	Noise  *NoiseData
	Config XtalkConfig
}

// NewXtalkSched builds an XtalkSched over the given characterization data.
func NewXtalkSched(nd *NoiseData, cfg XtalkConfig) *XtalkSched {
	if cfg.PowersetCap <= 0 {
		cfg.PowersetCap = 6
	}
	if cfg.TieBreak == 0 {
		cfg.TieBreak = 0x1p-30
	}
	return &XtalkSched{Noise: nd, Config: cfg}
}

// Name implements Scheduler.
func (x *XtalkSched) Name() string { return fmt.Sprintf("XtalkSched(w=%.2g)", x.Config.Omega) }

// OverlapPairKeys returns the gate-ID pairs that receive overlap indicators
// for this circuit (the pruned CanOlp pairs), smaller ID first.
func (x *XtalkSched) OverlapPairKeys(c *circuit.Circuit) [][2]int {
	return crosstalkOverlapPairs(c, x.Noise)
}

// crosstalkOverlapPairs enumerates the pruned CanOlp relation of Section
// 7.2: unordered pairs of two-qubit gates that are concurrency-compatible
// (no shared qubit, no ancestry) and whose hardware edges form a
// high-crosstalk pair. These are exactly the pairs that receive overlap
// indicators in the SMT encoding and the conflict edges of the partitioner.
func crosstalkOverlapPairs(c *circuit.Circuit, nd *NoiseData) [][2]int {
	dag := c.DAG()
	two := c.TwoQubitGates()
	var keys [][2]int
	for i := 0; i < len(two); i++ {
		for j := i + 1; j < len(two); j++ {
			a, b := two[i], two[j]
			ga, gb := c.Gates[a], c.Gates[b]
			ea := device.NewEdge(ga.Qubits[0], ga.Qubits[1])
			eb := device.NewEdge(gb.Qubits[0], gb.Qubits[1])
			if dag.CanOverlap(a, b) && nd.IsHighCrosstalkPair(ea, eb) {
				keys = append(keys, [2]int{a, b})
			}
		}
	}
	return keys
}

// Schedule implements Scheduler.
func (x *XtalkSched) Schedule(c *circuit.Circuit, dev *device.Device) (*Schedule, error) {
	return x.ScheduleContext(context.Background(), c, dev)
}

// ScheduleContext implements ContextScheduler: it is Schedule with
// cancellation threaded into the SMT optimization. When ctx is canceled
// mid-search the solver aborts within one conflict-check interval; if an
// anytime incumbent schedule exists it is returned, otherwise the context's
// error is.
func (x *XtalkSched) ScheduleContext(ctx context.Context, c *circuit.Circuit, dev *device.Device) (*Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ValidateMeasures(c); err != nil {
		return nil, err
	}
	sched := newSchedule(c, dev, x.Name())
	var deadline time.Time
	if x.Config.Timeout > 0 {
		deadline = time.Now().Add(x.Config.Timeout)
	}
	st, err := x.solveGates(ctx, c, sched, nil, deadline, nil)
	if err != nil {
		if errors.Is(err, smt.ErrCanceled) {
			// Canceled before the first incumbent: report the caller's
			// cancellation, not a solver failure, and skip the heuristic
			// fallback (the caller asked us to stop working).
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		if (x.Config.Timeout > 0 || x.Config.MaxConflicts > 0) && !errors.Is(err, errSchedUnsat) {
			// Anytime budget expired before the first incumbent: fall back
			// to the greedy crosstalk-aware heuristic so callers still get
			// a valid, crosstalk-serialized schedule.
			h := &HeuristicXtalkSched{Noise: x.Noise, Omega: x.Config.Omega}
			hs, herr := h.Schedule(c, dev)
			if herr != nil {
				return nil, fmt.Errorf("xtalksched: %w (heuristic fallback also failed: %v)", err, herr)
			}
			hs.Scheduler = x.Name() + "+fallback"
			// Keep the counters of the expired search: the budget was spent
			// even though no incumbent came out of it.
			hs.Stats = SolveStats{Windows: 1, Fallbacks: 1, Decisions: st.decisions, Conflicts: st.conflicts}
			hs.Stats.addTier(st.tier)
			return hs, nil
		}
		return nil, fmt.Errorf("xtalksched: %w", err)
	}
	sched.SolverObjective = st.objective
	sched.Stats = SolveStats{Windows: 1, Decisions: st.decisions, Conflicts: st.conflicts}
	sched.Stats.addTier(st.tier)
	return sched, nil
}

// errSchedUnsat reports an unsatisfiable scheduling instance — a bug in the
// encoding or the input, never something a fallback should paper over.
var errSchedUnsat = errors.New("scheduling constraints unsatisfiable")

// winStats is one SMT instance's outcome: the minimized objective (including
// the fixed-cost contribution of partner-free gates), the SAT-core search
// effort, and the theory tiers' activity split.
type winStats struct {
	objective            float64
	decisions, conflicts int64
	tier                 smt.TierStats
}

// solveGates encodes the scheduling constraints of Section 7 restricted to
// the given gate IDs (nil = the whole circuit) and minimizes the weighted
// objective, writing the optimal start times into sched.Start for exactly
// those gates. With gates == nil this is the paper's monolithic encoding.
// A nonzero deadline bounds encoding and search together: the search is
// anytime and returns its incumbent when the deadline passes.
//
// When gates is a proper subset, the instance is a *window* of the
// conflict-partitioned engine: it must be dependency-closed from below
// within its conflict component (cross-window predecessors are enforced by
// the stitcher's barrier-respecting offsets, so their edges are dropped
// here), it is solved in window-local time starting at 0, and it must not
// contain measure gates — the global all-readouts-simultaneous slot only
// exists on the full circuit.
func (x *XtalkSched) solveGates(ctx context.Context, c *circuit.Circuit, sched *Schedule, gates []int, deadline time.Time, warm *smt.WarmStart) (winStats, error) {
	dag := c.DAG()
	if gates == nil {
		gates = make([]int, len(c.Gates))
		for i := range gates {
			gates[i] = i
		}
	}
	in := make([]bool, len(c.Gates))
	for _, id := range gates {
		in[id] = true
	}
	sol := smt.NewSolverWarm(warm)
	if x.Config.DebugAudit {
		sol.EnableDebugModelAudit()
		sol.EnableDebugStrict()
	}

	// Horizon: the fully serial duration is an upper bound on any useful
	// start time; bounding tau keeps the optimization polytope compact.
	horizon := device.DefaultMeasureDuration
	for _, id := range gates {
		horizon += sched.Duration[id]
	}
	tau := make([]smt.Var, len(c.Gates))
	for _, id := range gates {
		tau[id] = sol.Real()
		sol.Assert(smt.Ge(smt.V(tau[id]), smt.Const(0)))
		sol.Assert(smt.Le(smt.V(tau[id]), smt.Const(horizon)))
	}

	// Data dependency constraints (Eq. 1), restricted to in-instance edges.
	for _, id := range gates {
		for _, p := range dag.Pred[id] {
			if !in[p] {
				continue
			}
			sol.Assert(smt.Ge(smt.V(tau[id]), smt.V(tau[p]).AddConst(sched.Duration[p])))
		}
	}

	// IBMQ constraint: all readouts simultaneous.
	var firstMeasure = -1
	for _, id := range gates {
		if c.Gates[id].Kind != circuit.KindMeasure {
			continue
		}
		if firstMeasure < 0 {
			firstMeasure = id
			continue
		}
		sol.Assert(smt.Eq(smt.V(tau[id]), smt.V(tau[firstMeasure])))
	}

	// Overlap candidates: for each two-qubit gate, the concurrency-compatible
	// two-qubit gates whose hardware edge forms a high-crosstalk pair with
	// its own (the pruned CanOlp of Section 7.2).
	var two []int
	for _, id := range c.TwoQubitGates() {
		if in[id] {
			two = append(two, id)
		}
	}
	edgeOf := func(id int) device.Edge {
		g := c.Gates[id]
		return device.NewEdge(g.Qubits[0], g.Qubits[1])
	}
	canOlp := map[int][]int{}
	for i := 0; i < len(two); i++ {
		for j := i + 1; j < len(two); j++ {
			a, b := two[i], two[j]
			if !dag.CanOverlap(a, b) {
				continue
			}
			if !x.Noise.IsHighCrosstalkPair(edgeOf(a), edgeOf(b)) {
				continue
			}
			canOlp[a] = append(canOlp[a], b)
			canOlp[b] = append(canOlp[b], a)
		}
	}

	// Overlap indicators o_ij (Eq. 2), one per unordered pair.
	overlapVar := map[[2]int]smt.BoolV{}
	overlapOf := func(a, b int) smt.BoolV {
		key := [2]int{min(a, b), max(a, b)}
		if v, ok := overlapVar[key]; ok {
			return v
		}
		o := sol.Bool()
		overlapVar[key] = o
		fa := smt.V(tau[a]).AddConst(sched.Duration[a])
		fb := smt.V(tau[b]).AddConst(sched.Duration[b])
		sol.Assert(smt.Iff(smt.BoolLit(o), smt.And(
			smt.Le(smt.V(tau[b]), fa),
			smt.Le(smt.V(tau[a]), fb),
		)))
		if pin, ok := x.Config.ForceOverlaps[key]; ok {
			if pin {
				sol.Assert(smt.BoolLit(o))
			} else {
				sol.Assert(smt.Not(smt.BoolLit(o)))
			}
		}
		if !x.Config.DisableAlignment {
			// Eq. 11-13: gates either disjoint or fully nested (no partial
			// overlap, since circuit-level barriers cannot express it).
			sol.Assert(smt.Or(
				smt.Lt(fa, smt.V(tau[b])),
				smt.Lt(fb, smt.V(tau[a])),
				smt.And(smt.Le(fa, fb), smt.Ge(smt.V(tau[a]), smt.V(tau[b]))),
				smt.And(smt.Le(fb, fa), smt.Ge(smt.V(tau[b]), smt.V(tau[a]))),
			))
		}
		return o
	}

	// Gate error cost variables and overlap-scenario constraints (Eq. 3-8).
	// costVar[g] = -log(1 - eps_g); fixed-cost gates contribute a constant.
	objective := smt.Const(0)
	constCost := 0.0
	for _, id := range two {
		e := edgeOf(id)
		partners := canOlp[id]
		if len(partners) == 0 {
			constCost += errCost(x.Noise.Independent[e])
			continue
		}
		cg := sol.Real()
		indep := errCost(x.Noise.Independent[e])
		// Unconditional sanity bounds: the cost is at least the independent
		// cost and at most the worst representable error. Without these the
		// objective would be unbounded below under boolean assignments that
		// leave cg's scenario equations unasserted.
		sol.Assert(smt.Ge(smt.V(cg), smt.Const(indep)))
		sol.Assert(smt.Le(smt.V(cg), smt.Const(errCost(0.999))))
		if x.Config.SumErrorComposition {
			// Ablation: additive composition. cg >= indep + sum over
			// overlapping partners of their excess cost, via one
			// non-negative contribution variable per partner.
			excess := smt.Const(indep)
			for _, p := range partners {
				delta := errCost(x.Noise.ConditionalError(e, edgeOf(p))) - indep
				if delta <= 0 {
					continue
				}
				z := sol.Real()
				sol.Assert(smt.Ge(smt.V(z), smt.Const(0)))
				sol.Assert(smt.Le(smt.V(z), smt.Const(delta)))
				sol.Assert(smt.Implies(smt.BoolLit(overlapOf(id, p)),
					smt.Ge(smt.V(z), smt.Const(delta))))
				excess = excess.Add(smt.V(z))
			}
			sol.Assert(smt.Ge(smt.V(cg), excess))
		} else if x.Config.CompactErrorEncoding || len(partners) > x.Config.PowersetCap {
			// Linear encoding: each overlapping partner imposes its
			// conditional cost as a lower bound. Minimization drives cost to
			// the max active bound = Eq. 7's max rule.
			for _, p := range partners {
				cond := errCost(x.Noise.ConditionalError(e, edgeOf(p)))
				sol.Assert(smt.Implies(smt.BoolLit(overlapOf(id, p)),
					smt.Ge(smt.V(cg), smt.Const(cond))))
			}
		} else {
			// Paper-faithful powerset encoding: one implication per subset
			// of CanOlp(g) (Eq. 7), plus the empty-set case (Eq. 8).
			for mask := 0; mask < 1<<len(partners); mask++ {
				var lits []smt.Formula
				worst := indep
				for pi, p := range partners {
					o := smt.BoolLit(overlapOf(id, p))
					if mask>>pi&1 == 1 {
						lits = append(lits, o)
						if c := errCost(x.Noise.ConditionalError(e, edgeOf(p))); c > worst {
							worst = c
						}
					} else {
						lits = append(lits, smt.Not(o))
					}
				}
				sol.Assert(smt.Implies(smt.And(lits...),
					smt.Eq(smt.V(cg), smt.Const(worst))))
			}
		}
		objective = objective.Add(smt.Term(cg, x.Config.Omega))
	}

	// Decoherence lifetime constraints (Eq. 9-10 linearized): per active
	// qubit, F_q <= every gate start, L_q >= every gate finish, objective
	// term (1-omega) * (L_q - F_q) / T_q.
	for _, q := range c.ActiveQubits() {
		var onQubit []int
		for _, id := range gates {
			g := c.Gates[id]
			if g.Kind == circuit.KindBarrier {
				continue
			}
			for _, gq := range g.Qubits {
				if gq == q {
					onQubit = append(onQubit, id)
				}
			}
		}
		if len(onQubit) == 0 {
			continue
		}
		fq, lq := sol.Real(), sol.Real()
		for _, id := range onQubit {
			sol.Assert(smt.Le(smt.V(fq), smt.V(tau[id])))
			sol.Assert(smt.Ge(smt.V(lq), smt.V(tau[id]).AddConst(sched.Duration[id])))
		}
		sol.Assert(smt.Ge(smt.V(lq), smt.V(fq)))
		coh := x.Noise.Coherence[q]
		if coh <= 0 {
			coh = 1
		}
		w := (1 - x.Config.Omega) / coh
		objective = objective.Add(smt.Term(lq, w)).Add(smt.Term(fq, -w))
	}

	// Tie-break: prefer earlier start times so the optimum is compact.
	for _, id := range gates {
		objective = objective.Add(smt.Term(tau[id], x.Config.TieBreak))
	}

	// The budget runs from before the encoding was built, so the search
	// gets what the encoding left of it (at least a nanosecond: a zero
	// Deadline would mean none).
	var timeout time.Duration
	if !deadline.IsZero() {
		timeout = max(time.Until(deadline), time.Nanosecond)
	}
	model, ok, err := sol.Minimize(objective, smt.MinimizeOpts{
		MaxConflicts: x.Config.MaxConflicts,
		Deadline:     timeout,
		Cancel:       ctx.Done(),
	})
	decisions, conflicts := sol.Stats()
	st := winStats{decisions: decisions, conflicts: conflicts, tier: sol.TierStats()}
	if err != nil {
		return st, err
	}
	if !ok {
		return st, errSchedUnsat
	}
	for _, id := range gates {
		sched.Start[id] = math.Max(0, model.Real(tau[id]))
	}
	st.objective = model.Objective + x.Config.Omega*constCost
	return st, nil
}
