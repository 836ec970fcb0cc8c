package quant

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewStateIsZeroKet(t *testing.T) {
	s := NewState(3)
	if !approx(s.Prob(0), 1, 1e-12) {
		t.Fatalf("P(|000>) = %v, want 1", s.Prob(0))
	}
	if !approx(s.Norm(), 1, 1e-12) {
		t.Fatalf("norm %v, want 1", s.Norm())
	}
}

func TestXFlipsQubit(t *testing.T) {
	s := NewState(2)
	s.Apply1Q(&MatX, 0)
	if !approx(s.Prob(1), 1, 1e-12) {
		t.Fatalf("X|00> should be |01>; P(01)=%v", s.Prob(1))
	}
	s.Apply1Q(&MatX, 1)
	if !approx(s.Prob(3), 1, 1e-12) {
		t.Fatalf("expected |11>, P=%v", s.Prob(3))
	}
}

func TestHadamardSuperposition(t *testing.T) {
	s := NewState(1)
	s.Apply1Q(&MatH, 0)
	if !approx(s.Prob(0), 0.5, 1e-12) || !approx(s.Prob(1), 0.5, 1e-12) {
		t.Fatalf("H|0> probs = %v, %v", s.Prob(0), s.Prob(1))
	}
	s.Apply1Q(&MatH, 0)
	if !approx(s.Prob(0), 1, 1e-12) {
		t.Fatal("H is not self-inverse")
	}
}

func TestBellState(t *testing.T) {
	s := NewState(2)
	s.Apply1Q(&MatH, 0)
	s.Apply2Q(&MatCNOT, 0, 1) // control q0 (the high bit of the pair encoding), target q1
	// The |q1 q0> ordering: control is the first qubit arg of Apply2Q.
	p00, p11 := s.Prob(0), s.Prob(3)
	if !approx(p00, 0.5, 1e-12) || !approx(p11, 0.5, 1e-12) {
		t.Fatalf("Bell state probs: P(00)=%v P(11)=%v P(01)=%v P(10)=%v", p00, p11, s.Prob(1), s.Prob(2))
	}
}

func TestCNOTControlTarget(t *testing.T) {
	// Control set -> target flips.
	s := NewState(2)
	s.Apply1Q(&MatX, 1) // set qubit 1
	s.Apply2Q(&MatCNOT, 1, 0)
	if !approx(s.Prob(3), 1, 1e-12) {
		t.Fatalf("CNOT(ctrl=1, tgt=0) on |10>: want |11>, got P(3)=%v", s.Prob(3))
	}
	// Control clear -> target unchanged.
	s2 := NewState(2)
	s2.Apply2Q(&MatCNOT, 1, 0)
	if !approx(s2.Prob(0), 1, 1e-12) {
		t.Fatal("CNOT with clear control should be identity")
	}
}

func TestSWAPGate(t *testing.T) {
	s := NewState(2)
	s.Apply1Q(&MatX, 0)
	s.Apply2Q(&MatSWAP, 1, 0)
	if !approx(s.Prob(2), 1, 1e-12) {
		t.Fatalf("SWAP|01> should be |10>; P=%v", s.Prob(2))
	}
}

func TestSwapEqualsThreeCNOTs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s1 := NewState(2)
	// Random product state.
	u := MatU3(rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi)
	v := MatU3(rng.Float64()*math.Pi, rng.Float64()*2*math.Pi, rng.Float64()*2*math.Pi)
	s1.Apply1Q(&u, 0)
	s1.Apply1Q(&v, 1)
	s2 := s1.Clone()
	s1.Apply2Q(&MatSWAP, 1, 0)
	s2.Apply2Q(&MatCNOT, 0, 1)
	s2.Apply2Q(&MatCNOT, 1, 0)
	s2.Apply2Q(&MatCNOT, 0, 1)
	if f := s1.Fidelity(s2); !approx(f, 1, 1e-9) {
		t.Fatalf("SWAP != CNOT^3: fidelity %v", f)
	}
}

func TestUnitariesPreserveNorm(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewState(4)
		for i := 0; i < 20; i++ {
			switch rng.Intn(3) {
			case 0:
				m := MatU3(rng.Float64()*math.Pi, rng.Float64()*6, rng.Float64()*6)
				s.Apply1Q(&m, rng.Intn(4))
			case 1:
				s.Apply1Q(&MatH, rng.Intn(4))
			default:
				a, b := rng.Intn(4), rng.Intn(4)
				if a != b {
					s.Apply2Q(&MatCNOT, a, b)
				}
			}
		}
		return approx(s.Norm(), 1, 1e-9)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGateMatricesUnitary(t *testing.T) {
	oneQ := map[string][4]complex128{
		"X": MatX, "Y": MatY, "Z": MatZ, "H": MatH, "S": MatS, "Sdg": MatSdg,
		"T": MatT, "SX": MatSX,
		"RZ": MatRZ(1.1), "RX": MatRX(0.7), "RY": MatRY(2.3),
		"U1": MatU1(0.5), "U2": MatU2(0.3, 1.7), "U3": MatU3(1.0, 2.0, 3.0),
	}
	for name, m := range oneQ {
		// Check m * m^dagger = I.
		var prod [4]complex128
		d := [4]complex128{cmplx.Conj(m[0]), cmplx.Conj(m[2]), cmplx.Conj(m[1]), cmplx.Conj(m[3])}
		prod[0] = m[0]*d[0] + m[1]*d[2]
		prod[1] = m[0]*d[1] + m[1]*d[3]
		prod[2] = m[2]*d[0] + m[3]*d[2]
		prod[3] = m[2]*d[1] + m[3]*d[3]
		if cmplx.Abs(prod[0]-1) > 1e-9 || cmplx.Abs(prod[3]-1) > 1e-9 ||
			cmplx.Abs(prod[1]) > 1e-9 || cmplx.Abs(prod[2]) > 1e-9 {
			t.Fatalf("%s not unitary: %v", name, prod)
		}
	}
}

func TestMeasureCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewState(2)
	s.Apply1Q(&MatH, 0)
	out := s.MeasureQubit(0, rng)
	if p := s.ProbOne(0); !approx(p, float64(out), 1e-12) {
		t.Fatalf("after measuring %d, P(1)=%v", out, p)
	}
	// Repeat measurement must be deterministic.
	if again := s.MeasureQubit(0, rng); again != out {
		t.Fatalf("repeated measurement changed: %d then %d", out, again)
	}
}

func TestMeasurementStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ones := 0
	const n = 4000
	for i := 0; i < n; i++ {
		s := NewState(1)
		s.Apply1Q(&MatH, 0)
		ones += s.MeasureQubit(0, rng)
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("H|0> measurement frequency %v, want ~0.5", frac)
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewState(2)
	s.Apply1Q(&MatH, 0)
	s.Apply2Q(&MatCNOT, 0, 1)
	counts := map[int]int{}
	const n = 8000
	for i := 0; i < n; i++ {
		counts[s.Sample(rng)]++
	}
	if counts[1] != 0 || counts[2] != 0 {
		t.Fatalf("Bell state sampled odd-parity outcomes: %v", counts)
	}
	if math.Abs(float64(counts[0])/n-0.5) > 0.03 {
		t.Fatalf("P(00) frequency %v", float64(counts[0])/n)
	}
}

func TestAmplitudeDampingDecaysExcitedState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const gamma = 0.3
	decayed := 0
	const n = 5000
	for i := 0; i < n; i++ {
		s := NewState(1)
		s.Apply1Q(&MatX, 0)
		s.ApplyKraus(AmplitudeDampingKraus(gamma), 0, rng)
		if s.MeasureQubit(0, rng) == 0 {
			decayed++
		}
	}
	frac := float64(decayed) / n
	if math.Abs(frac-gamma) > 0.03 {
		t.Fatalf("decay fraction %v, want ~%v", frac, gamma)
	}
}

func TestAmplitudeDampingPreservesGround(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := NewState(1)
	s.ApplyKraus(AmplitudeDampingKraus(0.9), 0, rng)
	if !approx(s.Prob(0), 1, 1e-9) {
		t.Fatal("|0> must be a fixed point of amplitude damping")
	}
}

func TestPhaseDampingKillsCoherence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// |+> under repeated dephasing trajectories averaged: P(+ basis)
	// degrades toward 0.5. Statistically test via H-basis measurement.
	stay := 0
	const n = 4000
	for i := 0; i < n; i++ {
		s := NewState(1)
		s.Apply1Q(&MatH, 0)
		s.ApplyKraus(PhaseDampingKraus(0.5), 0, rng)
		s.Apply1Q(&MatH, 0)
		if s.MeasureQubit(0, rng) == 0 {
			stay++
		}
	}
	frac := float64(stay) / n
	// Dephasing with lambda=0.5: coherence scales by sqrt(1-0.5) ~ 0.707;
	// P(stay) = (1 + 0.707)/2 ~ 0.854.
	want := (1 + math.Sqrt(0.5)) / 2
	if math.Abs(frac-want) > 0.03 {
		t.Fatalf("dephasing survival %v, want ~%v", frac, want)
	}
}

func TestFidelitySelf(t *testing.T) {
	s := NewState(3)
	s.Apply1Q(&MatH, 1)
	if f := s.Fidelity(s); !approx(f, 1, 1e-12) {
		t.Fatalf("self fidelity %v", f)
	}
}

func TestKrausTracePreserving(t *testing.T) {
	// For any gamma, applying the channel keeps the state normalized.
	rng := rand.New(rand.NewSource(31))
	for _, gamma := range []float64{0, 0.1, 0.5, 0.9, 1} {
		s := NewState(1)
		s.Apply1Q(&MatH, 0)
		s.ApplyKraus(AmplitudeDampingKraus(gamma), 0, rng)
		if !approx(s.Norm(), 1, 1e-9) {
			t.Fatalf("gamma=%v: norm %v after trajectory step", gamma, s.Norm())
		}
	}
}

// TestPermutationGatesMatchApply2Q: ApplyCNOT and ApplySWAP give every
// amplitude the value the dense Apply2Q product gives it, for every ordered
// qubit pair of a random 4-qubit state.
func TestPermutationGatesMatchApply2Q(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := NewState(4)
	for i := range base.Amp {
		base.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	base.Amp[5] = complex(0, rng.NormFloat64()) // zero parts take the same path
	base.Normalize()
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				continue
			}
			for _, gate := range []struct {
				name  string
				dense *[16]complex128
				perm  func(*State, int, int)
			}{
				{"cnot", &MatCNOT, (*State).ApplyCNOT},
				{"swap", &MatSWAP, (*State).ApplySWAP},
			} {
				want, got := base.Clone(), base.Clone()
				want.Apply2Q(gate.dense, a, b)
				gate.perm(got, a, b)
				for i := range want.Amp {
					if got.Amp[i] != want.Amp[i] {
						t.Fatalf("%s(%d,%d) amplitude %d: %v, dense %v", gate.name, a, b, i, got.Amp[i], want.Amp[i])
					}
				}
			}
		}
	}
}

// drawSource makes rand.Rand.Float64 return the value it holds times
// 2^-63.
type drawSource struct{ v int64 }

func (s *drawSource) Int63() int64 { return s.v }
func (s *drawSource) Seed(int64)   {}

// drawsAround returns generators whose first Float64 is r itself and the
// float just below it, when r is a multiple of 2^-63 in (0, 1), plus one
// drawing from rng. The first two put a draw exactly at a branch threshold
// r, so a threshold summed in another order, even one ulp off, takes the
// other branch for one of them.
func drawsAround(r float64, rng *rand.Rand) []*rand.Rand {
	out := []*rand.Rand{rand.New(&drawSource{rng.Int63()})}
	for _, x := range []float64{r, math.Nextafter(r, 0)} {
		if v := x * (1 << 63); x > 0 && x < 1 && v == math.Trunc(v) {
			out = append(out, rand.New(&drawSource{int64(v)}))
		}
	}
	return out
}

// TestState2MatchesState: every State2 step leaves the amplitudes State's
// step leaves on a 2-qubit state, up to the sign of a zero, and takes the
// same branch for draws at and just below each threshold: dense 4x4
// products with exact zero and unit entries, all 16 Pauli pairs, damping
// of both kinds on both qubits with gamma inside, at and beyond [0, 1],
// and measurement of both qubits.
func TestState2MatchesState(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	same := func(step string, s *State2, ref *State) {
		t.Helper()
		for i, a := range s {
			if a != ref.Amp[i] {
				t.Fatalf("%s: amplitude %d is %v, State has %v", step, i, a, ref.Amp[i])
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		ref := NewState(2)
		for i := range ref.Amp {
			ref.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ref.Amp[rng.Intn(4)] = complex(0, rng.NormFloat64())
		ref.Normalize()
		var s State2
		copy(s[:], ref.Amp)

		var u [16]complex128
		for i := range u {
			switch rng.Intn(4) {
			case 0:
				u[i] = 0
			case 1:
				u[i] = []complex128{1, -1, 1i, -1i}[rng.Intn(4)]
			default:
				u[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		ref.Apply2Q(&u, 1, 0)
		s.Apply(&u)
		same("Apply", &s, ref)
		ref.Normalize()
		s.normalize()
		same("normalize", &s, ref)

		for p0 := PauliI; p0 <= PauliZ; p0++ {
			for p1 := PauliI; p1 <= PauliZ; p1++ {
				r, c := ref.Clone(), s
				r.ApplyPauliPair(p0, p1, 0, 1)
				c.ApplyPauliPair(p0, p1)
				same(fmt.Sprintf("Pauli %v%v", p0, p1), &c, r)
			}
		}

		for _, kind := range []DampingKind{AmplitudeDamping, PhaseDamping} {
			for q := 0; q < 2; q++ {
				for _, gamma := range []float64{-0.5, 0, 0.02, 0.3, 0.5, 1, 1.5} {
					d := newDamping(q, kind, gamma)
					acc := make([]float64, 1)
					ref.KrausThresholds(d.Kraus(), q, acc)
					for _, draw := range drawsAround(acc[0], rng) {
						v := draw.Int63()
						r, c := ref.Clone(), s
						r.ApplyKraus(d.Kraus(), q, rand.New(&drawSource{v}))
						c.ApplyDamping(&d, rand.New(&drawSource{v}))
						same(fmt.Sprintf("damping %+v draw %v", d, v), &c, r)
					}
				}
			}
		}

		for q := 0; q < 2; q++ {
			for _, draw := range drawsAround(ref.ProbOne(q), rng) {
				v := draw.Int63()
				r, c := ref.Clone(), s
				want := r.MeasureQubit(q, rand.New(&drawSource{v}))
				if got := c.MeasureQubit(q, rand.New(&drawSource{v})); got != want {
					t.Fatalf("measure qubit %d draw %v: outcome %d, State has %d", q, v, got, want)
				}
				same(fmt.Sprintf("measure qubit %d", q), &c, r)
			}
		}
	}
}
