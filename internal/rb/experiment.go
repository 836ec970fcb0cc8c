package rb

import (
	"fmt"
	"math"
	"math/rand"

	"xtalk/internal/device"
	"xtalk/internal/linalg"
	"xtalk/internal/quant"
)

// Config sets the RB experiment shape. The paper's setup (Section 8.1):
// 100 random sequences, up to 40 Cliffords per sequence, 1024 trials each.
type Config struct {
	// Lengths are the Clifford sequence lengths m sampled on the curve.
	Lengths []int
	// Sequences is the number of random sequences per length.
	Sequences int
	// Shots is the number of trials per sequence.
	Shots int
	// Seed seeds sequence sampling and trajectory noise.
	Seed int64
}

// DefaultConfig mirrors the paper's parameters with shot counts scaled down.
// The length ladder is front-loaded so that high-crosstalk pairs (whose
// decay saturates within a few Cliffords) and ordinary pairs (which need
// long sequences) both get several informative points.
func DefaultConfig() Config {
	return Config{
		Lengths:   []int{1, 2, 3, 5, 8, 12, 20, 32},
		Sequences: 12,
		Shots:     128,
		Seed:      1,
	}
}

// PaperConfig is the paper's full experiment shape (100 sequences x 1024
// trials); used for experiment counting and time modeling rather than
// simulation.
func PaperConfig() Config {
	return Config{
		Lengths:   []int{1, 4, 8, 14, 20, 28, 40},
		Sequences: 100,
		Shots:     1024,
		Seed:      1,
	}
}

// TotalExecutions returns the number of hardware trials one RB experiment of
// this shape consumes.
func (c Config) TotalExecutions() int {
	return len(c.Lengths) * c.Sequences * c.Shots
}

// Point is one (length, survival) sample on the RB decay curve.
type Point struct {
	Length   int
	Survival float64
}

// Outcome is the result of one (possibly simultaneous) RB measurement for a
// single gate pair.
type Outcome struct {
	// EPC is the fitted error per Clifford.
	EPC float64
	// CNOTError is EPC divided by the average CNOTs per Clifford — the
	// paper's per-CNOT error estimate.
	CNOTError float64
	Fit       linalg.ExpDecayFit
	Curve     []Point
}

// PairNoise describes the error environment of one CNOT pair during an RB
// run: the per-CNOT Pauli error probability plus the decoherence and readout
// parameters of the two qubits.
type PairNoise struct {
	CNOTErrorRate float64
	CNOTDuration  float64 // ns
	Qubit0        device.QubitCal
	Qubit1        device.QubitCal
}

// Run simulates a two-qubit RB experiment under the given noise and fits the
// decay. The per-Clifford trajectory applies the exact Clifford unitary,
// injects a random two-qubit Pauli with probability 1-(1-p)^CNOTs, and
// applies T1/T2 damping across the Clifford's duration.
func Run(noise PairNoise, cfg Config) (Outcome, error) {
	g := TwoQubitCliffordGroup()
	table := newNoiseTable(g, noise)
	return run(g, cfg, func(seq []int, rng *rand.Rand) bool {
		return table.trajectory(g, seq, noise, rng)
	})
}

// run samples cfg's Clifford sequences, runs cfg.Shots shots of each
// through survives, which executes one shot and reports whether both qubits
// measured 0, and fits the survival curve.
func run(g *Group, cfg Config, survives func(seq []int, rng *rand.Rand) bool) (Outcome, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var seq []int
	var curve []Point
	for _, m := range cfg.Lengths {
		if m < 1 {
			return Outcome{}, fmt.Errorf("rb: invalid sequence length %d", m)
		}
		survived, total := 0, 0
		for s := 0; s < cfg.Sequences; s++ {
			seq = seq[:0]
			comp := 0 // identity
			for i := 0; i < m; i++ {
				idx := g.Sample(rng)
				seq = append(seq, idx)
				comp = g.Compose(comp, idx)
			}
			seq = append(seq, g.Elems[comp].Inv)
			for shot := 0; shot < cfg.Shots; shot++ {
				if survives(seq, rng) {
					survived++
				}
				total++
			}
		}
		curve = append(curve, Point{Length: m, Survival: float64(survived) / float64(total)})
	}
	// Saturated points (survival close to the 1/4 asymptote) carry no decay
	// information and bias the fit; keep the informative prefix (at least 3
	// points).
	var ms, ys []float64
	for i, p := range curve {
		if i >= 3 && p.Survival < 0.32 {
			break
		}
		ms = append(ms, float64(p.Length))
		ys = append(ys, p.Survival)
	}
	// Fit with the asymptote pinned at 1/4 (two-qubit depolarized limit;
	// symmetric readout flips preserve it), which greatly reduces variance
	// on short curves.
	fit, err := linalg.FitExpDecayFixedB(ms, ys, 0.25)
	if err != nil {
		return Outcome{}, err
	}
	// Error per Clifford for a 2-qubit system: (1 - alpha) * (d-1)/d, d=4.
	epc := (1 - fit.Alpha) * 3 / 4
	// Per-CNOT error by inverting the compounding exactly: a Clifford with
	// n CNOTs depolarizes with alpha_CNOT^n, so alpha_CNOT = alpha^(1/avg).
	// (The paper divides EPC by 1.5, equivalent to first order.)
	avg := g.AverageCNOTs()
	alphaCNOT := math.Pow(fit.Alpha, 1/avg)
	return Outcome{
		EPC:       epc,
		CNOTError: (1 - alphaCNOT) * 3 / 4,
		Fit:       fit,
		Curve:     curve,
	}, nil
}

// cliffordNoise is what one Clifford does to a trajectory besides its
// unitary. It depends only on the Clifford's CNOT count, so Run builds it
// once per count.
type cliffordNoise struct {
	// drawError is set when the Clifford is exposed to CNOT error; errProb
	// is then the probability of a random two-qubit Pauli.
	drawError bool
	errProb   float64
	// idle lists the damping channels across the Clifford's duration,
	// qubit 0's before qubit 1's.
	idle []quant.Damping
}

// noiseTable is indexed by CNOT count.
type noiseTable []cliffordNoise

func newNoiseTable(g *Group, noise PairNoise) noiseTable {
	table := make(noiseTable, g.maxCNOTs+1)
	for cnots := range table {
		cn := &table[cnots]
		if cnots > 0 && noise.CNOTErrorRate > 0 {
			cn.drawError = true
			cn.errProb = 1 - math.Pow(1-noise.CNOTErrorRate, float64(cnots))
		}
		dur := float64(cnots)*noise.CNOTDuration + 2*device.Default1QDuration
		for q, qc := range []device.QubitCal{noise.Qubit0, noise.Qubit1} {
			if dur <= 0 || qc.T1 <= 0 {
				continue
			}
			cn.idle = append(cn.idle, quant.IdleDampings(q, dur, qc.T1, qc.T2)...)
		}
	}
	return table
}

// trajectory executes one shot of a Clifford sequence on |00> and reports
// whether both qubits measured back to 0.
func (t noiseTable) trajectory(g *Group, seq []int, noise PairNoise, rng *rand.Rand) bool {
	var s quant.State2
	s.Reset()
	for _, idx := range seq {
		el := &g.Elems[idx]
		s.Apply(&el.U)
		cn := &t[el.CNOTs]
		if cn.drawError && rng.Float64() < cn.errProb {
			s.ApplyPauliPair(quant.RandomPauliPair(rng))
		}
		for i := range cn.idle {
			s.ApplyDamping(&cn.idle[i], rng)
		}
	}
	b0 := s.MeasureQubit(0, rng)
	b1 := s.MeasureQubit(1, rng)
	if rng.Float64() < noise.Qubit0.ReadoutError {
		b0 ^= 1
	}
	if rng.Float64() < noise.Qubit1.ReadoutError {
		b1 ^= 1
	}
	return b0 == 0 && b1 == 0
}

// MeasureIndependent runs standalone RB for the CNOT on edge e of the
// device, returning the estimated independent error rate E(g).
func MeasureIndependent(dev *device.Device, e device.Edge, cfg Config) (Outcome, error) {
	return Run(pairNoiseFor(dev, e, dev.Cal.IndependentError(e)), cfg)
}

// MeasureSimultaneous runs SRB on edges gi and gj simultaneously, returning
// the estimated conditional error rates E(gi|gj) and E(gj|gi). In the
// device's noise model simultaneous drive elevates each gate's Pauli error
// rate to its ground-truth conditional rate; SRB recovers those rates (up to
// statistical noise) exactly as on hardware.
func MeasureSimultaneous(dev *device.Device, gi, gj device.Edge, cfg Config) (Outcome, Outcome, error) {
	cfgJ := cfg
	cfgJ.Seed = cfg.Seed + 7919
	oi, err := Run(pairNoiseFor(dev, gi, dev.Cal.ConditionalError(gi, gj)), cfg)
	if err != nil {
		return Outcome{}, Outcome{}, err
	}
	oj, err := Run(pairNoiseFor(dev, gj, dev.Cal.ConditionalError(gj, gi)), cfgJ)
	if err != nil {
		return Outcome{}, Outcome{}, err
	}
	return oi, oj, nil
}

func pairNoiseFor(dev *device.Device, e device.Edge, rate float64) PairNoise {
	return PairNoise{
		CNOTErrorRate: rate,
		CNOTDuration:  dev.Cal.Gates[e].Duration,
		Qubit0:        dev.Cal.Qubits[e.A],
		Qubit1:        dev.Cal.Qubits[e.B],
	}
}
