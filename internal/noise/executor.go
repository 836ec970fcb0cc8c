// Package noise executes scheduled circuits on the simulated device with a
// Monte-Carlo quantum-trajectory error model. It is the stand-in for running
// on real IBMQ hardware, and is what makes schedules matter: gate errors are
// sampled at the independent rate when a gate runs alone and at the
// (ground-truth) conditional rate when it temporally overlaps a
// high-crosstalk partner; qubits decohere (T1 amplitude damping + T2
// dephasing) across their scheduled lifetimes; and readout passes through a
// per-qubit confusion channel.
package noise

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/quant"
)

// Options configures the executor.
type Options struct {
	// Shots is the number of Monte-Carlo trials.
	Shots int
	// Seed seeds the trajectory RNG.
	Seed int64
	// DisableGateErrors turns off stochastic Pauli gate errors.
	DisableGateErrors bool
	// DisableDecoherence turns off T1/T2 trajectories.
	DisableDecoherence bool
	// DisableReadoutErrors turns off the readout confusion channel.
	DisableReadoutErrors bool
	// DisableCrosstalk makes all gates use independent error rates even when
	// overlapping (for "crosstalk-free hardware region" baselines).
	DisableCrosstalk bool
}

// Result holds the outcome histogram of an execution.
type Result struct {
	// Counts maps measured bitstrings (little-endian over measured qubits,
	// in measured-qubit order) to shot counts.
	Counts map[string]int
	// MeasuredQubits lists the physical qubits measured, in bit order.
	MeasuredQubits []int
	Shots          int
}

// Probabilities returns the empirical outcome distribution.
func (r *Result) Probabilities() map[string]float64 {
	p := make(map[string]float64, len(r.Counts))
	for k, v := range r.Counts {
		p[k] = float64(v) / float64(r.Shots)
	}
	return p
}

// event is a schedule-ordered simulation step.
type event struct {
	gateID int
	start  float64
}

// Executor runs scheduled circuits against a device's ground-truth noise.
type Executor struct {
	Dev *device.Device
}

// NewExecutor returns an executor for the device.
func NewExecutor(dev *device.Device) *Executor {
	return &Executor{Dev: dev}
}

// Run executes the schedule for opts.Shots trajectories and returns the
// outcome histogram over the measured qubits. Everything that depends only
// on the schedule — idle windows, gate matrices, error rates, measurement
// slots — is built once into a step table. The shots run as a trajectory
// tree (trajectory.go): each distinct noise history is simulated once, with
// the histogram every shot-by-shot run of the same RNG stream gives.
func (ex *Executor) Run(s *core.Schedule, opts Options) (*Result, error) {
	if opts.Shots <= 0 {
		opts.Shots = 1024
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("noise: invalid schedule: %w", err)
	}
	// Compact to active qubits to keep the statevector small.
	compact, remap := s.Circ.Compact()
	measured := measuredQubits(s.Circ)
	steps := ex.buildSteps(s, remap, measured, opts)
	rng := rand.New(rand.NewSource(opts.Seed))
	t := newTree(steps, compact.NQubits, len(measured), min(opts.Shots, chunkShots))
	defer t.release()
	for done := 0; done < opts.Shots; {
		n := min(opts.Shots-done, chunkShots)
		t.run(n, rng)
		done += n
	}
	return &Result{Counts: t.counts(), MeasuredQubits: measured, Shots: opts.Shots}, nil
}

// step is one operation of a shot, in schedule order: a decoherence
// channel, a gate, a gate's stochastic Pauli error or a measurement.
type step struct {
	kind   opKind
	q0, q1 int
	// u is an op1Q gate's matrix.
	u [4]complex128
	// ks is an opKraus channel's Kraus set on q0.
	ks []*[4]complex128
	// p is an opPauli error's probability, or an opMeasure readout flip's.
	p float64
	// readout is set on an opMeasure under readout errors; slot is its bit
	// index.
	readout bool
	slot    int
}

// buildSteps orders the schedule's gates by start time (stable on gate ID)
// and resolves each into its steps: the decoherence channels on its
// operands since each one's previous operation ended (in operand order),
// the gate itself, then a two-qubit gate's Pauli error.
func (ex *Executor) buildSteps(s *core.Schedule, remap map[int]int, measured []int, opts Options) []step {
	var events []event
	for _, g := range s.Circ.Gates {
		if g.Kind == circuit.KindBarrier {
			continue
		}
		events = append(events, event{gateID: g.ID, start: s.Start[g.ID]})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].start != events[j].start {
			return events[i].start < events[j].start
		}
		return events[i].gateID < events[j].gateID
	})

	// Per-gate effective error rates from the schedule: the ground-truth
	// conditional rate when overlapping a crosstalk partner (max rule,
	// Eq. 6), else the independent rate.
	effErr := ex.effectiveErrorRates(s, opts)

	// Per-qubit idle/lifetime decoherence windows: damage is applied right
	// before each gate, covering the span since the qubit's previous
	// operation ended (decoherence starts at the first gate, Section 7.2).
	prevEnd := map[int]float64{}

	steps := make([]step, 0, 2*len(events))
	for _, ev := range events {
		g := &s.Circ.Gates[ev.gateID]
		if !opts.DisableDecoherence {
			for _, q := range g.Qubits {
				last, seen := prevEnd[q]
				if seen && ev.start > last {
					qc := ex.Dev.Cal.Qubits[q]
					for _, d := range quant.IdleDampings(remap[q], ev.start-last, qc.T1, qc.T2) {
						steps = append(steps, step{kind: opKraus, q0: d.Q, ks: d.Kraus()})
					}
				}
			}
		}
		st := compileGate(g, remap)
		if g.Kind == circuit.KindMeasure {
			st.slot = indexOf(measured, g.Qubits[0])
			st.p = ex.Dev.Cal.Qubits[g.Qubits[0]].ReadoutError
			st.readout = !opts.DisableReadoutErrors
		}
		steps = append(steps, st)
		if g.Kind.IsTwoQubit() && !opts.DisableGateErrors {
			steps = append(steps, step{kind: opPauli, q0: st.q0, q1: st.q1, p: effErr[g.ID]})
		}
		end := ev.start + s.Duration[g.ID]
		for _, q := range g.Qubits {
			prevEnd[q] = end
		}
	}
	return steps
}

// effectiveErrorRates computes, per two-qubit gate, the trajectory error
// probability implied by the schedule and the device's ground truth.
func (ex *Executor) effectiveErrorRates(s *core.Schedule, opts Options) map[int]float64 {
	eff := map[int]float64{}
	two := s.Circ.TwoQubitGates()
	for _, id := range two {
		g := s.Circ.Gates[id]
		e := device.NewEdge(g.Qubits[0], g.Qubits[1])
		rate := ex.Dev.Cal.IndependentError(e)
		if g.Kind == circuit.KindSWAP {
			// SWAP = 3 CNOTs; approximate compound error.
			rate = 1 - math.Pow(1-rate, 3)
		}
		if !opts.DisableCrosstalk {
			for _, other := range two {
				if other == id || !s.Overlaps(id, other) {
					continue
				}
				og := s.Circ.Gates[other]
				oe := device.NewEdge(og.Qubits[0], og.Qubits[1])
				cond := ex.Dev.Cal.ConditionalError(e, oe)
				if g.Kind == circuit.KindSWAP {
					cond = 1 - math.Pow(1-cond, 3)
				}
				if cond > rate {
					rate = cond
				}
			}
		}
		eff[id] = rate
	}
	return eff
}

// opKind is how a step acts on the state.
type opKind uint8

const (
	opNone    opKind = iota // barrier
	opMeasure               // projective measurement of q0
	op1Q                    // 2x2 matrix u on q0
	opCNOT                  // control q0, target q1
	opSWAP                  // exchange q0 and q1
	opKraus                 // one branch of the Kraus set ks on q0
	opPauli                 // with probability p, a random Pauli pair on q0, q1
)

// compileGate resolves g's action and matrix once, so no shot recomputes a
// rotation matrix.
func compileGate(g *circuit.Gate, remap map[int]int) step {
	switch g.Kind {
	case circuit.KindBarrier:
		return step{kind: opNone}
	case circuit.KindMeasure:
		return step{kind: opMeasure, q0: remap[g.Qubits[0]]}
	case circuit.KindCNOT:
		return step{kind: opCNOT, q0: remap[g.Qubits[0]], q1: remap[g.Qubits[1]]}
	case circuit.KindSWAP:
		return step{kind: opSWAP, q0: remap[g.Qubits[0]], q1: remap[g.Qubits[1]]}
	}
	op := step{kind: op1Q, q0: remap[g.Qubits[0]]}
	switch g.Kind {
	case circuit.KindH:
		op.u = quant.MatH
	case circuit.KindX:
		op.u = quant.MatX
	case circuit.KindU1:
		op.u = quant.MatU1(g.Params[0])
	case circuit.KindU2:
		op.u = quant.MatU2(g.Params[0], g.Params[1])
	case circuit.KindU3:
		op.u = quant.MatU3(g.Params[0], g.Params[1], g.Params[2])
	case circuit.KindRZ:
		op.u = quant.MatRZ(g.Params[0])
	case circuit.KindRX:
		op.u = quant.MatRX(g.Params[0])
	case circuit.KindRY:
		op.u = quant.MatRY(g.Params[0])
	default:
		panic(fmt.Sprintf("noise: unsupported gate kind %v", g.Kind))
	}
	return op
}

// apply applies a unitary gate step; every other step is a no-op here.
func (op *step) apply(state *quant.State) {
	switch op.kind {
	case op1Q:
		state.Apply1Q(&op.u, op.q0)
	case opCNOT:
		state.ApplyCNOT(op.q0, op.q1)
	case opSWAP:
		state.ApplySWAP(op.q0, op.q1)
	}
}

func measuredQubits(c *circuit.Circuit) []int {
	var out []int
	for _, g := range c.Gates {
		if g.Kind == circuit.KindMeasure {
			out = append(out, g.Qubits[0])
		}
	}
	return out
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// IdealProbabilities simulates the circuit noiselessly (ignoring the
// schedule) and returns the exact outcome distribution over the measured
// qubits in measurement order.
func IdealProbabilities(c *circuit.Circuit) (map[string]float64, []int) {
	compact, remap := c.Compact()
	state := quant.NewState(compact.NQubits)
	for i := range c.Gates {
		op := compileGate(&c.Gates[i], remap)
		op.apply(state)
	}
	measured := measuredQubits(c)
	probs := map[string]float64{}
	full := state.Probabilities()
	for idx, p := range full {
		if p < 1e-12 {
			continue
		}
		bits := make([]byte, len(measured))
		for i, q := range measured {
			if idx>>uint(remap[q])&1 == 1 {
				bits[i] = '1'
			} else {
				bits[i] = '0'
			}
		}
		probs[string(bits)] += p
	}
	return probs, measured
}
