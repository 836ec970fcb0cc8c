// Package certify is the independent schedule certifier: a small,
// dependency-free checker that validates a core.Schedule against the paper's
// crosstalk-scheduling model without trusting any of the machinery that
// produced it. It re-derives everything it checks from first principles —
// precedence from the circuit's last-writer chains, the pruned CanOlp pair
// relation from the device calibration (not the engine's NoiseData), gate
// durations from the device model, and the Eq. 17 objective with exact
// big.Rat accumulation — and returns a structured Violation list rather
// than a bool, so callers can assert on the precise failure mode.
//
// Independence contract: the package imports only the data-type packages
// (circuit, device) plus the core.Schedule container type. It must never
// import internal/smt or call engine code in internal/core; an import- and
// identifier-auditing test enforces this, because a certifier that shares
// logic with the engines it checks certifies nothing.
//
// The certifier checks model invariants every engine must satisfy:
//
//   - well-formedness (array sizes, gate IDs, qubit ranges)
//   - non-negative start times and device-model gate durations
//   - dependency precedence, including barrier ordering on their qubits
//   - qubit exclusivity (no time overlap between gates sharing a qubit)
//   - single readout per qubit, all readouts simultaneous (IBMQ constraint)
//   - the claimed objective cost, recomputed from scratch (optional)
//
// plus one engine-conditional invariant: the no-partial-overlap alignment
// rule (Eq. 11-13) over re-enumerated CanOlp pairs, which exact-SMT
// schedules satisfy but greedy/baseline schedules legitimately may not
// (enable with Config.CheckAlignment).
package certify

import (
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
)

// Kind classifies a Violation.
type Kind int

// Violation kinds, one per certifier check.
const (
	// Malformed: the schedule or circuit is structurally broken (size
	// mismatch, bad gate ID, qubit out of range) — no further checks ran
	// on the broken part.
	Malformed Kind = iota
	// NegativeStart: a gate starts before t=0.
	NegativeStart
	// BadDuration: a gate's recorded duration disagrees with the device
	// model (per-edge CNOT calibration, 3x for SWAP, readout/1q defaults).
	BadDuration
	// Precedence: a gate starts before a same-qubit predecessor finishes
	// (covers data dependencies and barrier ordering alike).
	Precedence
	// QubitOverlap: two gates sharing a qubit overlap in time.
	QubitOverlap
	// DoubleMeasure: a qubit is measured more than once — unsatisfiable
	// under the single simultaneous readout slot.
	DoubleMeasure
	// ReadoutDesync: measure gates do not share one start instant.
	ReadoutDesync
	// PartialOverlap: a re-derived CanOlp high-crosstalk pair overlaps
	// partially — neither disjoint nor nested — which circuit-level
	// barriers cannot express (Eq. 11-13). Only reported when
	// Config.CheckAlignment is set.
	PartialOverlap
	// CostMismatch: the claimed objective cost disagrees with the
	// certifier's from-scratch recomputation beyond tolerance. Only
	// reported when Config.CheckCost is set.
	CostMismatch
)

var kindNames = map[Kind]string{
	Malformed:      "malformed",
	NegativeStart:  "negative-start",
	BadDuration:    "bad-duration",
	Precedence:     "precedence",
	QubitOverlap:   "qubit-overlap",
	DoubleMeasure:  "double-measure",
	ReadoutDesync:  "readout-desync",
	PartialOverlap: "partial-overlap",
	CostMismatch:   "cost-mismatch",
}

// String returns the stable kebab-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Violation is one certifier finding.
type Violation struct {
	Kind Kind
	// Gate and Other are the gate IDs involved (-1 when not applicable);
	// for pairwise checks Gate is the later/failing gate and Other its
	// counterpart.
	Gate, Other int
	// Qubit is the qubit involved (-1 when not applicable).
	Qubit int
	// Detail is a human-readable explanation with the numbers that failed.
	Detail string
}

// String renders the violation in one line.
func (v Violation) String() string {
	var sb strings.Builder
	sb.WriteString(v.Kind.String())
	if v.Gate >= 0 {
		fmt.Fprintf(&sb, " gate=%d", v.Gate)
	}
	if v.Other >= 0 {
		fmt.Fprintf(&sb, " other=%d", v.Other)
	}
	if v.Qubit >= 0 {
		fmt.Fprintf(&sb, " qubit=%d", v.Qubit)
	}
	if v.Detail != "" {
		sb.WriteString(": ")
		sb.WriteString(v.Detail)
	}
	return sb.String()
}

// Config shapes one certification pass.
type Config struct {
	// Omega is the crosstalk weight of the Eq. 17 objective the cost
	// recomputation uses. Pass the engine's resolved omega (0 is a valid
	// value: the decoherence-only ablation).
	Omega float64
	// Threshold is the high-crosstalk detection ratio used to re-derive
	// the crosstalk pair set from the device calibration when Noise is
	// nil (<= 0 selects the paper's 3).
	Threshold float64
	// Tol is the timing tolerance in ns (<= 0 selects 1e-6, matching the
	// engines' float slack).
	Tol float64
	// CheckAlignment enforces the Eq. 11-13 no-partial-overlap rule on
	// re-derived CanOlp pairs. Exact-SMT schedules satisfy it; greedy and
	// baseline schedules legitimately may not, so it is opt-in.
	CheckAlignment bool
	// CheckCost compares ClaimedCost against the recomputed objective.
	CheckCost bool
	// ClaimedCost is the engine-reported Eq. 17 cost to verify.
	ClaimedCost float64
	// Noise overrides the noise model the cost recomputation and pair
	// re-derivation use. Leave nil to re-derive from the device
	// calibration at Threshold — the independent default. Set it only
	// when the engine scheduled against measured (characterized) data, in
	// which case the certifier must score with the same model.
	Noise *NoiseModel
}

// Report is the outcome of one certification pass.
type Report struct {
	// Violations lists every failed check (empty = certified).
	Violations []Violation
	// Cost is the objective recomputed from scratch: per-gate error terms
	// and per-qubit lifetime ratios accumulated exactly in big.Rat (the
	// transcendental -log(1-eps) per-gate constants are the same float64
	// values the model defines). Nil when the schedule was too malformed
	// to cost.
	Cost *big.Rat
	// CostFloat is Cost rounded to float64 for comparisons and display.
	CostFloat float64
	// Makespan is the recomputed schedule length in ns.
	Makespan float64
	// Pairs is the number of CanOlp high-crosstalk pairs re-derived from
	// the device model for this circuit.
	Pairs int
	// Scheduler echoes the schedule's engine name, for report context.
	Scheduler string
}

// OK reports whether the schedule certified clean.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when certified, else an error summarizing the first
// violations (all of them when few).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	const show = 4
	parts := make([]string, 0, show+1)
	for i, v := range r.Violations {
		if i == show {
			parts = append(parts, fmt.Sprintf("... and %d more", len(r.Violations)-show))
			break
		}
		parts = append(parts, v.String())
	}
	return fmt.Errorf("schedule failed certification (%d violations): %s",
		len(r.Violations), strings.Join(parts, "; "))
}

// String renders a one-paragraph summary.
func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("certified: %s, makespan %.0f ns, cost %.6g, %d crosstalk pairs checked",
			r.Scheduler, r.Makespan, r.CostFloat, r.Pairs)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "NOT certified: %s, %d violations\n", r.Scheduler, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  %s\n", v.String())
	}
	return sb.String()
}

func (r *Report) add(k Kind, gate, other, qubit int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Kind: k, Gate: gate, Other: other, Qubit: qubit,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Check certifies one schedule against the crosstalk-scheduling model. It
// never panics on malformed input: structural problems surface as Malformed
// violations and the remaining checks run on whatever is still sound.
func Check(s *core.Schedule, cfg Config) *Report {
	r := &Report{}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	if s == nil || s.Circ == nil || s.Dev == nil {
		r.add(Malformed, -1, -1, -1, "schedule, circuit or device is nil")
		return r
	}
	r.Scheduler = s.Scheduler
	c, dev := s.Circ, s.Dev
	n := len(c.Gates)
	if len(s.Start) != n || len(s.Duration) != n {
		r.add(Malformed, -1, -1, -1,
			"start/duration arrays sized %d/%d for %d gates", len(s.Start), len(s.Duration), n)
		return r
	}
	if c.NQubits > dev.Topo.NQubits {
		r.add(Malformed, -1, -1, -1,
			"circuit spans %d qubits, device has %d", c.NQubits, dev.Topo.NQubits)
		return r
	}
	for i, g := range c.Gates {
		if g.ID != i {
			r.add(Malformed, g.ID, -1, -1, "gate at index %d carries ID %d", i, g.ID)
			return r
		}
		seen := map[int]bool{}
		for _, q := range g.Qubits {
			if q < 0 || q >= c.NQubits {
				r.add(Malformed, g.ID, -1, q, "qubit out of range [0,%d)", c.NQubits)
				return r
			}
			if seen[q] {
				r.add(Malformed, g.ID, -1, q, "duplicate qubit operand")
				return r
			}
			seen[q] = true
		}
	}

	noise := cfg.Noise
	if noise == nil {
		noise = NoiseFromDevice(dev, cfg.Threshold)
	}

	finish := func(id int) float64 { return s.Start[id] + s.Duration[id] }

	// Start times and device-model durations.
	for _, g := range c.Gates {
		if s.Start[g.ID] < -cfg.Tol {
			r.add(NegativeStart, g.ID, -1, -1, "starts at %v ns", s.Start[g.ID])
		}
		want := modelDuration(dev, g)
		if math.Abs(s.Duration[g.ID]-want) > cfg.Tol {
			r.add(BadDuration, g.ID, -1, -1,
				"duration %v ns, device model says %v ns", s.Duration[g.ID], want)
		}
	}

	// Precedence, re-derived from last-writer chains (the same relation
	// the dependency DAG encodes, rebuilt here without consulting it).
	// Direct edges suffice: durations are non-negative, so satisfying
	// every direct edge satisfies the transitive order.
	last := make([]int, c.NQubits)
	for i := range last {
		last[i] = -1
	}
	preds := make([][]int, n)
	for _, g := range c.Gates {
		dup := map[int]bool{}
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 && !dup[p] {
				dup[p] = true
				preds[g.ID] = append(preds[g.ID], p)
				ready := finish(p)
				if g.Kind == circuit.KindBarrier && c.Gates[p].Kind == circuit.KindMeasure {
					// A zero-width barrier after a measure is a
					// serialization marker inside the simultaneous readout
					// slot (the QASM emitter places one before each
					// subsequent measure); it aligns with the slot's start,
					// not its end — mirroring core.ValidateMeasures, which
					// exempts barriers from the gate-after-measure rule.
					ready = s.Start[p]
				}
				if s.Start[g.ID] < ready-cfg.Tol {
					r.add(Precedence, g.ID, p, q,
						"starts at %v ns before predecessor finishes at %v ns",
						s.Start[g.ID], ready)
				}
			}
			last[q] = g.ID
		}
	}

	// The non-barrier gates on each qubit, gathered in one pass: the
	// exclusivity sweep and the lifetime loop below both read them.
	onQubit := make([][]int, c.NQubits)
	for _, g := range c.Gates {
		if g.Kind == circuit.KindBarrier {
			continue
		}
		for _, q := range g.Qubits {
			onQubit[q] = append(onQubit[q], g.ID)
		}
	}

	// Qubit exclusivity: on every qubit, non-barrier gates must not
	// overlap in time. Sorted sweep per qubit; the running latest finisher
	// is the witness for any overlap.
	for q, ids := range onQubit {
		sort.Slice(ids, func(i, j int) bool {
			if s.Start[ids[i]] != s.Start[ids[j]] {
				return s.Start[ids[i]] < s.Start[ids[j]]
			}
			return ids[i] < ids[j]
		})
		prev, prevEnd := -1, math.Inf(-1)
		for _, id := range ids {
			if s.Start[id] < prevEnd-cfg.Tol {
				r.add(QubitOverlap, id, prev, q,
					"starts at %v ns while gate %d still runs until %v ns",
					s.Start[id], prev, prevEnd)
			}
			if f := finish(id); f > prevEnd {
				prev, prevEnd = id, f
			}
		}
	}

	// Readout: at most one measure per qubit, all measures simultaneous.
	measuredBy := make([]int, c.NQubits)
	for i := range measuredBy {
		measuredBy[i] = -1
	}
	firstMeasure := -1
	for _, g := range c.Gates {
		if g.Kind != circuit.KindMeasure {
			continue
		}
		q := g.Qubits[0]
		if p := measuredBy[q]; p >= 0 {
			r.add(DoubleMeasure, g.ID, p, q, "qubit measured more than once")
		}
		measuredBy[q] = g.ID
		if firstMeasure < 0 {
			firstMeasure = g.ID
			continue
		}
		if math.Abs(s.Start[g.ID]-s.Start[firstMeasure]) > cfg.Tol {
			r.add(ReadoutDesync, g.ID, firstMeasure, q,
				"readout at %v ns, common slot at %v ns", s.Start[g.ID], s.Start[firstMeasure])
		}
	}

	// Re-enumerate the pruned CanOlp relation from the device model:
	// concurrency-compatible two-qubit gate pairs whose hardware edges are
	// a high-crosstalk pair under the re-derived noise model.
	anc := ancestry(c, preds)
	two := twoQubitIDs(c)
	type pair struct{ a, b int }
	var canOlp []pair
	for i := 0; i < len(two); i++ {
		for j := i + 1; j < len(two); j++ {
			a, b := two[i], two[j]
			if sharesQubit(c.Gates[a], c.Gates[b]) || anc.is(a, b) || anc.is(b, a) {
				continue
			}
			if noise.IsHighCrosstalkPair(gateEdge(c.Gates[a]), gateEdge(c.Gates[b])) {
				canOlp = append(canOlp, pair{a, b})
			}
		}
	}
	r.Pairs = len(canOlp)

	// Alignment (Eq. 11-13): CanOlp pairs must be disjoint or fully
	// nested. Barriers cannot express partial overlap, so an exact-SMT
	// schedule claiming one is wrong; greedy schedules skip this check.
	if cfg.CheckAlignment {
		for _, p := range canOlp {
			aS, aF := s.Start[p.a], finish(p.a)
			bS, bF := s.Start[p.b], finish(p.b)
			disjoint := aF <= bS+cfg.Tol || bF <= aS+cfg.Tol
			nested := (aS >= bS-cfg.Tol && aF <= bF+cfg.Tol) || (bS >= aS-cfg.Tol && bF <= aF+cfg.Tol)
			if !disjoint && !nested {
				r.add(PartialOverlap, p.b, p.a, -1,
					"crosstalk pair overlaps partially: [%v,%v] vs [%v,%v] ns",
					aS, aF, bS, bF)
			}
		}
	}

	// Makespan and objective, recomputed from scratch. Overlap decisions
	// replicate the model's float comparison (boundary instants within
	// 1e-9 ns do not overlap); the accumulation itself is exact big.Rat,
	// so no summation-order error can hide a miscosted schedule.
	for _, g := range c.Gates {
		if g.Kind == circuit.KindBarrier {
			continue
		}
		if f := finish(g.ID); f > r.Makespan {
			r.Makespan = f
		}
	}
	overlaps := func(a, b int) bool {
		return s.Start[a] < finish(b)-1e-9 && s.Start[b] < finish(a)-1e-9
	}
	gateCost := new(big.Rat)
	for _, id := range two {
		e := gateEdge(c.Gates[id])
		eps := noise.independent(e)
		for _, other := range two {
			if other == id || !overlaps(id, other) {
				continue
			}
			if cond := noise.conditional(e, gateEdge(c.Gates[other])); cond > eps {
				eps = cond
			}
		}
		gateCost.Add(gateCost, ratFloat(errCost(eps)))
	}
	// The lifetime ratios sum over a running common denominator: each
	// coherence time brings its own odd numerator into the denominator, so
	// a per-term Rat.Add would pay a GCD over ever larger integers. Here
	// num/den grows by multiplication only and is reduced once.
	num, den := new(big.Int), big.NewInt(1)
	var termNum, termDen big.Int
	for q, ids := range onQubit {
		first, lastF := math.Inf(1), math.Inf(-1)
		for _, id := range ids {
			if s.Start[id] < first {
				first = s.Start[id]
			}
			if f := finish(id); f > lastF {
				lastF = f
			}
		}
		if math.IsInf(first, 1) || lastF-first <= 0 {
			continue
		}
		coh := noise.coherence(q)
		if coh <= 0 {
			coh = 1
		}
		// lifetime/coh = (lt.num * coh.den) / (lt.den * coh.num).
		lt, cr := new(big.Rat).Sub(ratFloat(lastF), ratFloat(first)), ratFloat(coh)
		termNum.Mul(lt.Num(), cr.Denom())
		termDen.Mul(lt.Denom(), cr.Num())
		num.Mul(num, &termDen)
		num.Add(num, termNum.Mul(&termNum, den))
		den.Mul(den, &termDen)
	}
	decoCost := new(big.Rat).SetFrac(num, den)
	cost := new(big.Rat).Mul(ratFloat(cfg.Omega), gateCost)
	cost.Add(cost, new(big.Rat).Mul(new(big.Rat).Sub(ratFloat(1), ratFloat(cfg.Omega)), decoCost))
	r.Cost = cost
	r.CostFloat, _ = cost.Float64()

	if cfg.CheckCost {
		diff := math.Abs(cfg.ClaimedCost - r.CostFloat)
		if diff > 1e-9+1e-6*math.Abs(r.CostFloat) {
			verb := "overstates"
			if cfg.ClaimedCost < r.CostFloat {
				verb = "understates"
			}
			r.add(CostMismatch, -1, -1, -1,
				"claimed cost %.12g %s recomputed %.12g (diff %.3g)",
				cfg.ClaimedCost, verb, r.CostFloat, diff)
		}
	}
	return r
}

// modelDuration re-derives the device-model duration of a gate: zero for
// barriers, the fixed readout slot for measures, the per-edge CNOT
// calibration (3x for a SWAP, 400 ns when the edge is uncalibrated) for
// two-qubit gates, and the 1q default otherwise.
func modelDuration(dev *device.Device, g circuit.Gate) float64 {
	switch {
	case g.Kind == circuit.KindBarrier:
		return 0
	case g.Kind == circuit.KindMeasure:
		return device.DefaultMeasureDuration
	case g.Kind.IsTwoQubit():
		d := 400.0
		if gc, ok := dev.Cal.Gates[gateEdge(g)]; ok {
			d = gc.Duration
		}
		if g.Kind == circuit.KindSWAP {
			d *= 3
		}
		return d
	default:
		return device.Default1QDuration
	}
}

func gateEdge(g circuit.Gate) device.Edge { return device.NewEdge(g.Qubits[0], g.Qubits[1]) }

func sharesQubit(a, b circuit.Gate) bool {
	for _, qa := range a.Qubits {
		for _, qb := range b.Qubits {
			if qa == qb {
				return true
			}
		}
	}
	return false
}

func twoQubitIDs(c *circuit.Circuit) []int {
	var out []int
	for _, g := range c.Gates {
		if g.Kind.IsTwoQubit() {
			out = append(out, g.ID)
		}
	}
	return out
}

// ancestors is a transitive-ancestor bitset matrix over gate IDs, built
// from the certifier's own predecessor lists (gates arrive in topological
// order by construction of the circuit IR).
type ancestors struct {
	words int
	bits  []uint64
}

func ancestry(c *circuit.Circuit, preds [][]int) *ancestors {
	n := len(c.Gates)
	a := &ancestors{words: (n + 63) / 64}
	a.bits = make([]uint64, n*a.words)
	for i := 0; i < n; i++ {
		row := a.bits[i*a.words : (i+1)*a.words]
		for _, p := range preds[i] {
			row[p/64] |= 1 << uint(p%64)
			prow := a.bits[p*a.words : (p+1)*a.words]
			for w := range row {
				row[w] |= prow[w]
			}
		}
	}
	return a
}

// is reports whether a is a (transitive) ancestor of b.
func (m *ancestors) is(a, b int) bool {
	return m.bits[b*m.words+a/64]&(1<<uint(a%64)) != 0
}

// errCost maps an error rate to the objective's per-gate cost -log(1-eps),
// with the model's clamps.
func errCost(eps float64) float64 {
	if eps >= 1 {
		eps = 0.999999
	}
	if eps < 0 {
		eps = 0
	}
	return -math.Log(1 - eps)
}

// ratFloat converts a float64 exactly to a rational (every finite float64
// is a dyadic rational).
func ratFloat(v float64) *big.Rat {
	r := new(big.Rat)
	if r.SetFloat64(v) == nil {
		return new(big.Rat) // NaN/Inf cannot reach here from checked inputs
	}
	return r
}
