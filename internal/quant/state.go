// Package quant implements a dense statevector simulator with support for
// unitary gate application, projective measurement, sampling, and Monte-Carlo
// (quantum trajectory) application of Kraus channels. It is the execution
// substrate standing in for real IBMQ hardware in this reproduction.
package quant

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// State is a pure quantum state over n qubits, stored as 2^n complex
// amplitudes. Qubit 0 is the least-significant bit of the basis index.
type State struct {
	N   int
	Amp []complex128
}

// NewState returns |0...0> over n qubits.
func NewState(n int) *State {
	checkQubitCount(n)
	amp := make([]complex128, 1<<uint(n))
	amp[0] = 1
	return &State{N: n, Amp: amp}
}

// NewStates returns k states over n qubits backed by one allocation, each
// |0...0>.
func NewStates(k, n int) []State {
	checkQubitCount(n)
	dim := 1 << uint(n)
	amp := make([]complex128, k*dim)
	out := make([]State, k)
	for i := range out {
		out[i] = State{N: n, Amp: amp[i*dim : (i+1)*dim : (i+1)*dim]}
		out[i].Amp[0] = 1
	}
	return out
}

func checkQubitCount(n int) {
	if n < 1 || n > 26 {
		panic(fmt.Sprintf("quant: unsupported qubit count %d", n))
	}
}

// Clone returns a deep copy of s.
func (s *State) Clone() *State {
	c := &State{N: s.N, Amp: make([]complex128, len(s.Amp))}
	copy(c.Amp, s.Amp)
	return c
}

// Reset returns the state to |0...0>.
func (s *State) Reset() {
	for i := range s.Amp {
		s.Amp[i] = 0
	}
	s.Amp[0] = 1
}

// Norm returns the 2-norm of the state (1 for a normalized state).
func (s *State) Norm() float64 {
	var n float64
	for _, a := range s.Amp {
		n += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(n)
}

// Normalize rescales the state to unit norm. It scales re and im by the
// real 1/n, which gives what a complex multiply by 1/n gives up to the sign
// of a zero.
func (s *State) Normalize() {
	n := s.Norm()
	if n == 0 {
		return
	}
	inv := 1 / n
	for i, a := range s.Amp {
		s.Amp[i] = scale(inv, a)
	}
}

// The kernels below visit only the basis indices they act on, in
// increasing order: a 1-qubit kernel walks blocks of 2*bit indices and the
// bit-clear half of each; a 2-qubit kernel nests that once more. Sums
// therefore run in index order, as a scan of every index would.

// Apply1Q applies the 2x2 unitary u to qubit q.
func (s *State) Apply1Q(u *[4]complex128, q int) {
	if q < 0 || q >= s.N {
		panic(fmt.Sprintf("quant: qubit %d out of range [0,%d)", q, s.N))
	}
	bit := 1 << uint(q)
	for i0 := 0; i0 < len(s.Amp); i0 += 2 * bit {
		for i := i0; i < i0+bit; i++ {
			j := i | bit
			a0, a1 := s.Amp[i], s.Amp[j]
			s.Amp[i] = u[0]*a0 + u[1]*a1
			s.Amp[j] = u[2]*a0 + u[3]*a1
		}
	}
}

// Apply2Q applies the 4x4 unitary u to qubits (q1, q0) where q0 indexes the
// least-significant bit of the 2-qubit subspace: basis order is
// |q1 q0> in {00, 01, 10, 11}.
func (s *State) Apply2Q(u *[16]complex128, q1, q0 int) {
	s.check2Q(q1, q0)
	b0 := 1 << uint(q0)
	b1 := 1 << uint(q1)
	mask := b0 | b1
	lo, hi := min(b0, b1), max(b0, b1)
	for i0 := 0; i0 < len(s.Amp); i0 += 2 * hi {
		for i1 := i0; i1 < i0+hi; i1 += 2 * lo {
			for i := i1; i < i1+lo; i++ {
				i00 := i
				i01 := i | b0
				i10 := i | b1
				i11 := i | mask
				a00, a01, a10, a11 := s.Amp[i00], s.Amp[i01], s.Amp[i10], s.Amp[i11]
				s.Amp[i00] = u[0]*a00 + u[1]*a01 + u[2]*a10 + u[3]*a11
				s.Amp[i01] = u[4]*a00 + u[5]*a01 + u[6]*a10 + u[7]*a11
				s.Amp[i10] = u[8]*a00 + u[9]*a01 + u[10]*a10 + u[11]*a11
				s.Amp[i11] = u[12]*a00 + u[13]*a01 + u[14]*a10 + u[15]*a11
			}
		}
	}
}

// ApplyCNOT applies a CNOT with the given control and target qubits. It is
// Apply2Q(&MatCNOT, control, target) as a permutation of amplitudes: every
// amplitude comes out with the value the dense product gives it, up to the
// sign of a zero.
func (s *State) ApplyCNOT(control, target int) {
	s.check2Q(control, target)
	c := 1 << uint(control)
	t := 1 << uint(target)
	lo, hi := min(c, t), max(c, t)
	for i0 := 0; i0 < len(s.Amp); i0 += 2 * hi {
		for i1 := i0; i1 < i0+hi; i1 += 2 * lo {
			for i := i1; i < i1+lo; i++ {
				j := i | c
				s.Amp[j], s.Amp[j|t] = s.Amp[j|t], s.Amp[j]
			}
		}
	}
}

// ApplySWAP exchanges qubits a and b. It is Apply2Q(&MatSWAP, a, b) as a
// permutation of amplitudes.
func (s *State) ApplySWAP(a, b int) {
	s.check2Q(a, b)
	ba := 1 << uint(a)
	bb := 1 << uint(b)
	lo, hi := min(ba, bb), max(ba, bb)
	for i0 := 0; i0 < len(s.Amp); i0 += 2 * hi {
		for i1 := i0; i1 < i0+hi; i1 += 2 * lo {
			for i := i1; i < i1+lo; i++ {
				s.Amp[i|ba], s.Amp[i|bb] = s.Amp[i|bb], s.Amp[i|ba]
			}
		}
	}
}

// check2Q panics unless q1 and q0 are distinct qubits of the state.
func (s *State) check2Q(q1, q0 int) {
	if q0 == q1 {
		panic("quant: two-qubit gate requires distinct qubits")
	}
	if q0 < 0 || q0 >= s.N || q1 < 0 || q1 >= s.N {
		panic(fmt.Sprintf("quant: qubits (%d,%d) out of range [0,%d)", q1, q0, s.N))
	}
}

// Prob returns the probability of observing basis state idx.
func (s *State) Prob(idx int) float64 {
	a := s.Amp[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// Probabilities returns the full probability distribution over basis states.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.Amp))
	for i, a := range s.Amp {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// ProbOne returns the probability that qubit q measures to 1.
func (s *State) ProbOne(q int) float64 {
	bit := 1 << uint(q)
	var p float64
	for i0 := bit; i0 < len(s.Amp); i0 += 2 * bit {
		for _, a := range s.Amp[i0 : i0+bit] {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// MeasureQubit performs a projective Z-measurement of qubit q using rng,
// collapses the state, and returns the outcome (0 or 1).
func (s *State) MeasureQubit(q int, rng *rand.Rand) int {
	p1 := s.ProbOne(q)
	outcome := 0
	if rng.Float64() < p1 {
		outcome = 1
	}
	s.Collapse(q, outcome)
	return outcome
}

// Collapse projects qubit q onto the given outcome (0 or 1) and
// renormalizes: the post-measurement state of MeasureQubit.
func (s *State) Collapse(q, outcome int) {
	// Zero the half of every block that disagrees with the outcome.
	bit := 1 << uint(q)
	off := bit
	if outcome == 1 {
		off = 0
	}
	for i0 := off; i0 < len(s.Amp); i0 += 2 * bit {
		clear(s.Amp[i0 : i0+bit])
	}
	s.Normalize()
}

// Sample draws a basis-state index from the state's distribution without
// collapsing the state.
func (s *State) Sample(rng *rand.Rand) int {
	r := rng.Float64()
	acc := 0.0
	for i, a := range s.Amp {
		acc += real(a)*real(a) + imag(a)*imag(a)
		if r < acc {
			return i
		}
	}
	return len(s.Amp) - 1
}

// Fidelity returns |<s|other>|^2.
func (s *State) Fidelity(other *State) float64 {
	if s.N != other.N {
		panic("quant: fidelity between states of different size")
	}
	var ip complex128
	for i := range s.Amp {
		ip += cmplx.Conj(s.Amp[i]) * other.Amp[i]
	}
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// ApplyKraus applies one operator from the Kraus set {ks} to the state,
// selected according to the Born probabilities p_k = ||K_k |psi>||^2, and
// renormalizes (a single quantum-trajectory step). All operators must be
// 2x2 and act on qubit q. The Kraus set must be trace preserving, so the
// last branch takes whatever probability the others leave and its own is
// never computed.
func (s *State) ApplyKraus(ks []*[4]complex128, q int, rng *rand.Rand) {
	if len(ks) == 0 {
		return
	}
	r := rng.Float64()
	acc := 0.0
	last := len(ks) - 1
	for _, k := range ks[:last] {
		// Probability of branch = ||K|psi>||^2 computed without copying the
		// full state: sum over amplitude pairs.
		acc += krausBranchProb(s, k, q)
		if r < acc {
			s.Apply1Q(k, q)
			s.Normalize()
			return
		}
	}
	s.Apply1Q(ks[last], q)
	s.Normalize()
}

// KrausThresholds writes the cumulative Born probabilities of every branch
// of ks but the last to acc (len(ks)-1 entries), summed as ApplyKraus sums
// them: ApplyKraus with draw r takes the first branch k with r < acc[k],
// else the last.
func (s *State) KrausThresholds(ks []*[4]complex128, q int, acc []float64) {
	sum := 0.0
	for i, k := range ks[:len(ks)-1] {
		sum += krausBranchProb(s, k, q)
		acc[i] = sum
	}
}

// ApplyKrausBranch applies the Kraus operator k to qubit q and renormalizes:
// the trajectory step ApplyKraus takes once it has chosen branch k.
func (s *State) ApplyKrausBranch(k *[4]complex128, q int) {
	s.Apply1Q(k, q)
	s.Normalize()
}

func krausBranchProb(s *State, k *[4]complex128, q int) float64 {
	bit := 1 << uint(q)
	var p float64
	for i0 := 0; i0 < len(s.Amp); i0 += 2 * bit {
		for i := i0; i < i0+bit; i++ {
			j := i | bit
			a0, a1 := s.Amp[i], s.Amp[j]
			n0 := k[0]*a0 + k[1]*a1
			n1 := k[2]*a0 + k[3]*a1
			p += real(n0)*real(n0) + imag(n0)*imag(n0)
			p += real(n1)*real(n1) + imag(n1)*imag(n1)
		}
	}
	return p
}
