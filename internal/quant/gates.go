package quant

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Standard single-qubit gate matrices, row-major [u00 u01 u10 u11].
var (
	// MatI is the identity.
	MatI = [4]complex128{1, 0, 0, 1}
	// MatX is the Pauli X gate.
	MatX = [4]complex128{0, 1, 1, 0}
	// MatY is the Pauli Y gate.
	MatY = [4]complex128{0, -1i, 1i, 0}
	// MatZ is the Pauli Z gate.
	MatZ = [4]complex128{1, 0, 0, -1}
	// MatH is the Hadamard gate.
	MatH = [4]complex128{
		complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0),
		complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0),
	}
	// MatS is the phase gate sqrt(Z).
	MatS = [4]complex128{1, 0, 0, 1i}
	// MatSdg is S dagger.
	MatSdg = [4]complex128{1, 0, 0, -1i}
	// MatT is the pi/8 gate.
	MatT = [4]complex128{1, 0, 0, cmplx.Exp(1i * math.Pi / 4)}
	// MatSX is sqrt(X).
	MatSX = [4]complex128{
		complex(0.5, 0.5), complex(0.5, -0.5),
		complex(0.5, -0.5), complex(0.5, 0.5),
	}
)

// MatRZ returns the RZ(theta) rotation matrix (up to global phase, exact IBM
// virtual-Z convention: diag(e^{-i t/2}, e^{i t/2})).
func MatRZ(theta float64) [4]complex128 {
	return [4]complex128{cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2))}
}

// MatRX returns the RX(theta) rotation matrix.
func MatRX(theta float64) [4]complex128 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return [4]complex128{c, s, s, c}
}

// MatRY returns the RY(theta) rotation matrix.
func MatRY(theta float64) [4]complex128 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return [4]complex128{c, -s, s, c}
}

// MatU3 returns the IBM U3(theta, phi, lambda) gate.
func MatU3(theta, phi, lambda float64) [4]complex128 {
	c := math.Cos(theta / 2)
	s := math.Sin(theta / 2)
	return [4]complex128{
		complex(c, 0),
		-cmplx.Exp(complex(0, lambda)) * complex(s, 0),
		cmplx.Exp(complex(0, phi)) * complex(s, 0),
		cmplx.Exp(complex(0, phi+lambda)) * complex(c, 0),
	}
}

// MatU2 returns the IBM U2(phi, lambda) gate = U3(pi/2, phi, lambda).
func MatU2(phi, lambda float64) [4]complex128 { return MatU3(math.Pi/2, phi, lambda) }

// MatU1 returns the IBM U1(lambda) phase gate = diag(1, e^{i lambda}).
func MatU1(lambda float64) [4]complex128 {
	return [4]complex128{1, 0, 0, cmplx.Exp(complex(0, lambda))}
}

// Two-qubit gate matrices in the |q1 q0> basis ordering used by Apply2Q.
var (
	// MatCNOT is the controlled-NOT with q1 as control, q0 as target.
	MatCNOT = [16]complex128{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
		0, 0, 1, 0,
	}
	// MatCZ is the controlled-Z gate (symmetric).
	MatCZ = [16]complex128{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, -1,
	}
	// MatSWAP exchanges the two qubits.
	MatSWAP = [16]complex128{
		1, 0, 0, 0,
		0, 0, 1, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
	}
)

// Pauli identifies one of the 4 single-qubit Paulis.
type Pauli int

// Pauli labels.
const (
	PauliI Pauli = iota
	PauliX
	PauliY
	PauliZ
)

// Mat returns the matrix of the Pauli.
func (p Pauli) Mat() *[4]complex128 {
	switch p {
	case PauliX:
		return &MatX
	case PauliY:
		return &MatY
	case PauliZ:
		return &MatZ
	default:
		return &MatI
	}
}

// RandomPauliPair draws a uniformly random non-identity two-qubit Pauli
// P0⊗P1 (the depolarizing-style gate error model) by rejection: each try
// draws P0, then P1, and I⊗I is drawn again.
func RandomPauliPair(rng *rand.Rand) (p0, p1 Pauli) {
	for {
		p0 = Pauli(rng.Intn(4))
		p1 = Pauli(rng.Intn(4))
		if p0 != PauliI || p1 != PauliI {
			return p0, p1
		}
	}
}

// ApplyPauliPair applies p0 to qubit q0, then p1 to qubit q1, skipping
// identities.
func (s *State) ApplyPauliPair(p0, p1 Pauli, q0, q1 int) {
	if p0 != PauliI {
		s.Apply1Q(p0.Mat(), q0)
	}
	if p1 != PauliI {
		s.Apply1Q(p1.Mat(), q1)
	}
}

// String returns the one-letter Pauli name.
func (p Pauli) String() string {
	switch p {
	case PauliX:
		return "X"
	case PauliY:
		return "Y"
	case PauliZ:
		return "Z"
	default:
		return "I"
	}
}

// DampingKind is the kind of a one-qubit damping channel.
type DampingKind uint8

const (
	// AmplitudeDamping is T1 relaxation: jump operator S1·|0><1|.
	AmplitudeDamping DampingKind = iota
	// PhaseDamping is pure dephasing: jump operator diag(0, S1).
	PhaseDamping
)

// Damping is a damping channel on qubit Q, given by the entries of its two
// Kraus operators: the no-jump operator diag(1, S0) and the jump operator
// of its Kind.
type Damping struct {
	Q      int
	Kind   DampingKind
	S0, S1 float64
}

// newDamping returns the channel of the given kind with jump probability
// gamma, clamped to [0, 1].
func newDamping(q int, kind DampingKind, gamma float64) Damping {
	g := clamp01(gamma)
	return Damping{Q: q, Kind: kind, S0: math.Sqrt(1 - g), S1: math.Sqrt(g)}
}

// Kraus returns the channel's Kraus operators, no-jump first, as ApplyKraus
// takes them.
func (d Damping) Kraus() []*[4]complex128 {
	k0 := [4]complex128{1, 0, 0, complex(d.S0, 0)}
	var k1 [4]complex128
	if d.Kind == AmplitudeDamping {
		k1[1] = complex(d.S1, 0)
	} else {
		k1[3] = complex(d.S1, 0)
	}
	return []*[4]complex128{&k0, &k1}
}

// AmplitudeDampingKraus returns the Kraus operators of an amplitude damping
// channel with decay probability gamma (T1 relaxation over some interval).
func AmplitudeDampingKraus(gamma float64) []*[4]complex128 {
	return newDamping(0, AmplitudeDamping, gamma).Kraus()
}

// PhaseDampingKraus returns the Kraus operators of a pure dephasing channel
// with dephasing probability lambda (excess T2 loss over some interval).
func PhaseDampingKraus(lambda float64) []*[4]complex128 {
	return newDamping(0, PhaseDamping, lambda).Kraus()
}

// IdleDampings returns the trajectory channels of qubit q idling for dt ns:
// T1 amplitude damping, then pure dephasing at rate 1/T_phi = 1/T2 -
// 1/(2 T1) when that rate is positive.
func IdleDampings(q int, dt, t1, t2 float64) []Damping {
	ds := []Damping{newDamping(q, AmplitudeDamping, 1-math.Exp(-dt/t1))}
	if invTphi := 1/t2 - 1/(2*t1); invTphi > 0 {
		ds = append(ds, newDamping(q, PhaseDamping, 1-math.Exp(-dt*invTphi)))
	}
	return ds
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
