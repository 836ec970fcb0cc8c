package quant

import (
	"fmt"
	"math"
	"math/rand"
)

// State2 is a pure two-qubit state, the fixed-size kernel of two-qubit
// randomized benchmarking. Its amplitudes are in State's basis order (qubit
// 0 is the least-significant bit of the index) and it has no slices, loops
// or bounds checks. Each method evaluates the float expressions its State
// counterpart evaluates on a 2-qubit state, except that the damping step
// drops the products with exact-zero Kraus entries. That changes at most
// the sign of a zero, which no probability can see, so every draw compares
// against the same threshold and every amplitude keeps its value.
type State2 [4]complex128

// Reset returns the state to |00>.
func (s *State2) Reset() { *s = State2{1} }

// Apply applies the 4x4 unitary u: State.Apply2Q(u, 1, 0).
func (s *State2) Apply(u *[16]complex128) {
	a00, a01, a10, a11 := s[0], s[1], s[2], s[3]
	s[0] = u[0]*a00 + u[1]*a01 + u[2]*a10 + u[3]*a11
	s[1] = u[4]*a00 + u[5]*a01 + u[6]*a10 + u[7]*a11
	s[2] = u[8]*a00 + u[9]*a01 + u[10]*a10 + u[11]*a11
	s[3] = u[12]*a00 + u[13]*a01 + u[14]*a10 + u[15]*a11
}

// ApplyPauliPair applies p0 to qubit 0, then p1 to qubit 1, skipping
// identities: State.ApplyPauliPair(p0, p1, 0, 1).
func (s *State2) ApplyPauliPair(p0, p1 Pauli) {
	if p0 != PauliI {
		u := p0.Mat()
		s[0], s[1] = apply1(u, s[0], s[1])
		s[2], s[3] = apply1(u, s[2], s[3])
	}
	if p1 != PauliI {
		u := p1.Mat()
		s[0], s[2] = apply1(u, s[0], s[2])
		s[1], s[3] = apply1(u, s[1], s[3])
	}
}

// apply1 is Apply1Q's product on one amplitude pair.
func apply1(u *[4]complex128, a0, a1 complex128) (complex128, complex128) {
	return u[0]*a0 + u[1]*a1, u[2]*a0 + u[3]*a1
}

// ApplyDamping takes one trajectory step of the damping channel d and
// renormalizes: State.ApplyKraus(d.Kraus(), d.Q, rng).
func (s *State2) ApplyDamping(d *Damping, rng *rand.Rand) {
	r := rng.Float64()
	// The amplitude pairs of qubit d.Q in krausBranchProb's order.
	switch d.Q {
	case 0:
		s[0], s[1], s[2], s[3] = damp(d, r, s[0], s[1], s[2], s[3])
	case 1:
		s[0], s[2], s[1], s[3] = damp(d, r, s[0], s[2], s[1], s[3])
	default:
		panic(fmt.Sprintf("quant: qubit %d out of range [0,2)", d.Q))
	}
	s.normalize()
}

// damp returns the amplitude pairs (a0, a1) and (b0, b1) after the branch
// of d that draw r selects. The no-jump branch diag(1, S0) is taken when r
// is below its probability, summed as krausBranchProb sums it; otherwise
// the jump operator of d's kind. Its Kind, not its entries, selects the
// jump: at gamma 0 the amplitude-damping jump is the zero matrix.
func damp(d *Damping, r float64, a0, a1, b0, b1 complex128) (complex128, complex128, complex128, complex128) {
	n1, m1 := scale(d.S0, a1), scale(d.S0, b1)
	p := abs2(a0)
	p += abs2(n1)
	p += abs2(b0)
	p += abs2(m1)
	if r < p {
		return a0, n1, b0, m1
	}
	if d.Kind == AmplitudeDamping {
		return scale(d.S1, a1), 0, scale(d.S1, b1), 0
	}
	return 0, scale(d.S1, a1), 0, scale(d.S1, b1)
}

// MeasureQubit performs a projective Z-measurement of qubit q (0 or 1),
// collapses the state and returns the outcome: State.MeasureQubit(q, rng).
func (s *State2) MeasureQubit(q int, rng *rand.Rand) int {
	// ProbOne's sum over the amplitudes with bit q set, in index order.
	var p1 float64
	switch q {
	case 0:
		p1 = abs2(s[1]) + abs2(s[3])
	case 1:
		p1 = abs2(s[2]) + abs2(s[3])
	default:
		panic(fmt.Sprintf("quant: qubit %d out of range [0,2)", q))
	}
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	// Zero the amplitudes that disagree with the outcome, as Collapse does.
	switch 2*q + outcome {
	case 0:
		s[1], s[3] = 0, 0
	case 1:
		s[0], s[2] = 0, 0
	case 2:
		s[2], s[3] = 0, 0
	case 3:
		s[0], s[1] = 0, 0
	}
	s.normalize()
	return outcome
}

// normalize is State.Normalize.
func (s *State2) normalize() {
	n := math.Sqrt(abs2(s[0]) + abs2(s[1]) + abs2(s[2]) + abs2(s[3]))
	if n == 0 {
		return
	}
	inv := 1 / n
	s[0], s[1], s[2], s[3] = scale(inv, s[0]), scale(inv, s[1]), scale(inv, s[2]), scale(inv, s[3])
}

func abs2(a complex128) float64 { return real(a)*real(a) + imag(a)*imag(a) }

func scale(x float64, a complex128) complex128 { return complex(x*real(a), x*imag(a)) }
