// Package core implements the paper's primary contribution: crosstalk-aware
// instruction scheduling. It provides the three schedulers of Table 1 —
// SerialSched (serialize everything), ParSched (maximize parallelism,
// right-aligned, the IBM default) and XtalkSched (SMT optimization balancing
// crosstalk against decoherence, Sections 6-7) — plus schedule evaluation
// utilities and the barrier-insertion post-pass.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/device"
	"xtalk/internal/smt"
)

// NoiseData is the characterization input consumed by the schedulers: the
// per-gate independent error rates and durations, per-qubit coherence limits,
// and the conditional error rates of the high-crosstalk pairs. It can be
// built from device ground truth (perfect knowledge) or from a
// characterization campaign's estimates.
type NoiseData struct {
	// Independent[e] is E(g) for the CNOT on edge e.
	Independent map[device.Edge]float64
	// Conditional[gi][gj] is E(gi|gj); only high-crosstalk entries present.
	Conditional map[device.Edge]map[device.Edge]float64
	// Coherence[q] is the usable coherence time min(T1, T2) in ns.
	Coherence []float64
}

// NoiseDataFromDevice extracts ground-truth noise data from a device,
// keeping only conditional entries exceeding threshold (paper: 3x) times the
// independent rate.
func NoiseDataFromDevice(dev *device.Device, threshold float64) *NoiseData {
	nd := &NoiseData{
		Independent: map[device.Edge]float64{},
		Conditional: map[device.Edge]map[device.Edge]float64{},
		Coherence:   make([]float64, dev.Topo.NQubits),
	}
	for e, gc := range dev.Cal.Gates {
		nd.Independent[e] = gc.Error
	}
	for q, qc := range dev.Cal.Qubits {
		nd.Coherence[q] = qc.CoherenceLimit()
	}
	for gi, m := range dev.Cal.Conditional {
		for gj, cond := range m {
			if cond > threshold*dev.Cal.Gates[gi].Error {
				if nd.Conditional[gi] == nil {
					nd.Conditional[gi] = map[device.Edge]float64{}
				}
				nd.Conditional[gi][gj] = cond
			}
		}
	}
	return nd
}

// ConditionalError returns E(gi|gj) from the data (independent rate when the
// pair is not a recorded crosstalk pair).
func (nd *NoiseData) ConditionalError(gi, gj device.Edge) float64 {
	if m, ok := nd.Conditional[gi]; ok {
		if v, ok := m[gj]; ok {
			return v
		}
	}
	return nd.Independent[gi]
}

// IsHighCrosstalkPair reports whether (gi, gj) has a conditional entry in
// either direction.
func (nd *NoiseData) IsHighCrosstalkPair(gi, gj device.Edge) bool {
	if m, ok := nd.Conditional[gi]; ok {
		if _, ok := m[gj]; ok {
			return true
		}
	}
	if m, ok := nd.Conditional[gj]; ok {
		if _, ok := m[gi]; ok {
			return true
		}
	}
	return false
}

// Schedule assigns a start time (ns) to every gate of a circuit on a device.
type Schedule struct {
	Circ *circuit.Circuit
	Dev  *device.Device
	// Start[i] and Duration[i] are indexed by gate ID.
	Start    []float64
	Duration []float64
	// Scheduler is the name of the algorithm that produced the schedule.
	Scheduler string
	// SolverObjective is the objective value reported by XtalkSched's SMT
	// optimization (0 for baseline schedulers). Partitioned schedules report
	// the sum of the per-window objectives, which ignores cross-window
	// decoherence gaps; use Cost for the exact realized objective.
	SolverObjective float64
	// Stats quantifies the solver effort that produced the schedule (zero
	// for baseline schedulers).
	Stats SolveStats
}

// SolveStats quantifies the SMT search effort behind a schedule.
type SolveStats struct {
	// Components is the number of independent components of the crosstalk
	// conflict graph (0 when the scheduler did not partition).
	Components int
	// Windows is the number of SMT instances solved: 1 for the monolithic
	// encoding, one per window for the partitioned engine, 0 when no SMT
	// search ran (baselines, pure-heuristic schedules).
	Windows int
	// Fallbacks counts windows completed by the greedy heuristic after a
	// budget or cancellation cut their SMT search short.
	Fallbacks int
	// Decisions and Conflicts total the SAT-core search counters across all
	// instances (see smt.Solver.Stats).
	Decisions, Conflicts int64
	// DiffAtoms and LinAtoms count interned theory atoms by classification
	// across all instances: difference-shaped (x - y <= c, ±x <= c) vs
	// genuinely multi-term linear. Difference atoms run on the difference
	// engine, linear ones on the simplex (see smt.Solver.TierStats).
	DiffAtoms, LinAtoms int64
	// DiffConflicts counts negative-cycle conflicts raised by the
	// difference-logic engine.
	DiffConflicts int64
	// SimplexTime is the wall-clock time spent inside the exact rational
	// simplex (feasibility checks and objective minimization); the rest of
	// the theory work ran on the native-float difference engine.
	SimplexTime time.Duration
	// Pivots totals simplex basis exchanges across all instances — the
	// unit of tableau work the dyadic fast path accelerates.
	Pivots int64
	// Promotions counts arithmetic operations that left the machine-word
	// dyadic fast path for wide exact arithmetic (see smt.TierStats).
	Promotions int64
	// PeakRatBits is the widest exact-arithmetic operand (bit-length of a
	// mantissa or denominator) observed in any instance; 0 when every
	// operation stayed in machine words.
	PeakRatBits int
	// RatBitsHist buckets promoted-result bit-lengths across all instances:
	// <=64, <=128, <=256, <=512, <=1024, >1024 (see smt.TierStats). All
	// zero when every operation stayed in machine words.
	RatBitsHist [6]int64
}

// Add accumulates other into s.
func (s *SolveStats) Add(other SolveStats) {
	s.Components += other.Components
	s.Windows += other.Windows
	s.Fallbacks += other.Fallbacks
	s.Decisions += other.Decisions
	s.Conflicts += other.Conflicts
	s.DiffAtoms += other.DiffAtoms
	s.LinAtoms += other.LinAtoms
	s.DiffConflicts += other.DiffConflicts
	s.SimplexTime += other.SimplexTime
	s.Pivots += other.Pivots
	s.Promotions += other.Promotions
	if other.PeakRatBits > s.PeakRatBits {
		s.PeakRatBits = other.PeakRatBits
	}
	for i := range s.RatBitsHist {
		s.RatBitsHist[i] += other.RatBitsHist[i]
	}
}

// addTier folds one SMT instance's per-tier theory counters into s.
func (s *SolveStats) addTier(t smt.TierStats) {
	s.DiffAtoms += int64(t.DiffAtoms)
	s.LinAtoms += int64(t.LinAtoms)
	s.DiffConflicts += t.DiffConflicts
	s.SimplexTime += t.SimplexTime
	s.Pivots += t.Pivots
	s.Promotions += t.DyadicPromotions
	if t.PeakRatBits > s.PeakRatBits {
		s.PeakRatBits = t.PeakRatBits
	}
	for i := range s.RatBitsHist {
		s.RatBitsHist[i] += t.RatBitsHist[i]
	}
}

// String renders the effort counters in one line.
func (s SolveStats) String() string {
	out := fmt.Sprintf("%d windows (%d components, %d heuristic fallbacks), %d decisions, %d conflicts; theory: %d diff / %d linear atoms, %d cycle conflicts, simplex %v, %d pivots, %d promotions, peak %d-bit",
		s.Windows, s.Components, s.Fallbacks, s.Decisions, s.Conflicts,
		s.DiffAtoms, s.LinAtoms, s.DiffConflicts, s.SimplexTime.Round(time.Microsecond),
		s.Pivots, s.Promotions, s.PeakRatBits)
	if s.PeakRatBits > 0 {
		labels := [6]string{"<=64", "<=128", "<=256", "<=512", "<=1024", ">1024"}
		hist := ""
		for i, n := range s.RatBitsHist {
			if n > 0 {
				hist += fmt.Sprintf(" %s:%d", labels[i], n)
			}
		}
		if hist != "" {
			out += " (bits" + hist + ")"
		}
	}
	return out
}

func newSchedule(c *circuit.Circuit, dev *device.Device, name string) *Schedule {
	s := &Schedule{
		Circ:      c,
		Dev:       dev,
		Start:     make([]float64, len(c.Gates)),
		Duration:  make([]float64, len(c.Gates)),
		Scheduler: name,
	}
	for _, g := range c.Gates {
		s.Duration[g.ID] = gateDuration(dev, g)
	}
	return s
}

func gateDuration(dev *device.Device, g circuit.Gate) float64 {
	switch {
	case g.Kind == circuit.KindBarrier:
		return 0
	case g.Kind == circuit.KindMeasure:
		return device.DefaultMeasureDuration
	case g.Kind.IsTwoQubit():
		d := dev.GateDuration(true, false, g.Qubits)
		if g.Kind == circuit.KindSWAP {
			d *= 3 // a SWAP is three back-to-back CNOTs
		}
		return d
	default:
		return device.Default1QDuration
	}
}

// Finish returns the finish time of gate id.
func (s *Schedule) Finish(id int) float64 { return s.Start[id] + s.Duration[id] }

// Makespan returns the total schedule duration.
func (s *Schedule) Makespan() float64 {
	var m float64
	for _, g := range s.Circ.Gates {
		if g.Kind == circuit.KindBarrier {
			continue
		}
		if f := s.Finish(g.ID); f > m {
			m = f
		}
	}
	return m
}

// Overlaps reports whether gates a and b overlap in time (shared boundary
// instants do not count as overlap).
func (s *Schedule) Overlaps(a, b int) bool {
	return s.Start[a] < s.Finish(b)-1e-9 && s.Start[b] < s.Finish(a)-1e-9
}

// QubitLifetime returns the paper's lifetime of qubit q: the span from the
// start of its first operation to the finish of its last (0 if the qubit is
// untouched).
func (s *Schedule) QubitLifetime(q int) float64 {
	first, last := math.Inf(1), math.Inf(-1)
	for _, g := range s.Circ.Gates {
		if g.Kind == circuit.KindBarrier {
			continue
		}
		for _, gq := range g.Qubits {
			if gq == q {
				if s.Start[g.ID] < first {
					first = s.Start[g.ID]
				}
				if f := s.Finish(g.ID); f > last {
					last = f
				}
			}
		}
	}
	if math.IsInf(first, 1) {
		return 0
	}
	return last - first
}

// Validate checks internal consistency: non-negative starts, dependency
// order respected, and no time overlap between gates sharing a qubit.
func (s *Schedule) Validate() error {
	dag := s.Circ.DAG()
	for _, g := range s.Circ.Gates {
		if s.Start[g.ID] < -1e-6 {
			return fmt.Errorf("gate %d (%s) starts at negative time %v", g.ID, g, s.Start[g.ID])
		}
		for _, p := range dag.Pred[g.ID] {
			if s.Start[g.ID] < s.Finish(p)-1e-6 {
				return fmt.Errorf("gate %d (%s) starts before predecessor %d finishes (%v < %v)",
					g.ID, g, p, s.Start[g.ID], s.Finish(p))
			}
		}
	}
	return nil
}

// CrosstalkOverlapCount returns the number of high-crosstalk gate pairs that
// overlap in time under the schedule.
func (s *Schedule) CrosstalkOverlapCount(nd *NoiseData) int {
	count := 0
	two := s.Circ.TwoQubitGates()
	for i := 0; i < len(two); i++ {
		for j := i + 1; j < len(two); j++ {
			gi, gj := s.Circ.Gates[two[i]], s.Circ.Gates[two[j]]
			ei := device.NewEdge(gi.Qubits[0], gi.Qubits[1])
			ej := device.NewEdge(gj.Qubits[0], gj.Qubits[1])
			if nd.IsHighCrosstalkPair(ei, ej) && s.Overlaps(two[i], two[j]) {
				count++
			}
		}
	}
	return count
}

// Cost evaluates the paper's weighted objective (Eq. 17, sign-corrected; see
// DESIGN.md) on the schedule:
//
//	omega * sum_g -log(1 - eps_g)  +  (1-omega) * sum_q lifetime_q / T_q
//
// where eps_g is the conditional error rate if g overlaps a high-crosstalk
// partner (max over overlapping partners, Eq. 6-7), else the independent
// rate. Only two-qubit gates contribute error terms, as in the paper.
func (s *Schedule) Cost(nd *NoiseData, omega float64) float64 {
	var gateCost float64
	two := s.Circ.TwoQubitGates()
	for _, id := range two {
		g := s.Circ.Gates[id]
		e := device.NewEdge(g.Qubits[0], g.Qubits[1])
		eps := nd.Independent[e]
		for _, other := range two {
			if other == id || !s.Overlaps(id, other) {
				continue
			}
			og := s.Circ.Gates[other]
			oe := device.NewEdge(og.Qubits[0], og.Qubits[1])
			if c := nd.ConditionalError(e, oe); c > eps {
				eps = c
			}
		}
		gateCost += errCost(eps)
	}
	var decoCost float64
	for q := 0; q < s.Circ.NQubits; q++ {
		if lt := s.QubitLifetime(q); lt > 0 {
			decoCost += lt / nd.Coherence[q]
		}
	}
	return omega*gateCost + (1-omega)*decoCost
}

// SuccessEstimate converts Cost with omega=0.5-style weighting into an
// analytic success-probability estimate exp(-(gate + deco)) with omega
// folded out (both terms weighted fully). Useful for quick model-level
// comparisons without Monte Carlo.
func (s *Schedule) SuccessEstimate(nd *NoiseData) float64 {
	full := s.Cost(nd, 0.5) * 2 // omega=0.5 halves both terms
	return math.Exp(-full)
}

// errCost maps an error rate to the objective's per-gate cost -log(1-eps).
func errCost(eps float64) float64 {
	if eps >= 1 {
		eps = 0.999999
	}
	if eps < 0 {
		eps = 0
	}
	return -math.Log(1 - eps)
}

// Render returns a text timeline of the schedule, one line per gate in start
// order. Useful for reproducing the paper's Figure 6 qualitatively.
func (s *Schedule) Render() string {
	ids := make([]int, 0, len(s.Circ.Gates))
	for _, g := range s.Circ.Gates {
		if g.Kind == circuit.KindBarrier {
			continue
		}
		ids = append(ids, g.ID)
	}
	sort.Slice(ids, func(i, j int) bool {
		if s.Start[ids[i]] != s.Start[ids[j]] {
			return s.Start[ids[i]] < s.Start[ids[j]]
		}
		return ids[i] < ids[j]
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s schedule, makespan %.0f ns\n", s.Scheduler, s.Makespan())
	for _, id := range ids {
		g := s.Circ.Gates[id]
		fmt.Fprintf(&sb, "  t=%8.0f..%8.0f  %s\n", s.Start[id], s.Finish(id), g.String())
	}
	return sb.String()
}
