package rb

import (
	"math"
	"testing"

	"xtalk/internal/device"
	"xtalk/internal/linalg"
)

func TestTwoQubitCliffordGroupSize(t *testing.T) {
	g := TwoQubitCliffordGroup()
	if g.Size() != TwoQubitCliffordGroupSize {
		t.Fatalf("group size %d, want %d", g.Size(), TwoQubitCliffordGroupSize)
	}
}

// cmat returns an element's unitary as a CMatrix.
func cmat(u [16]complex128) *linalg.CMatrix {
	m := linalg.NewCMatrix(4, 4)
	copy(m.Data, u[:])
	return m
}

func TestCliffordsAreUnitary(t *testing.T) {
	g := TwoQubitCliffordGroup()
	for i := 0; i < g.Size(); i += 97 {
		if !cmat(g.Elems[i].U).IsUnitary(1e-9) {
			t.Fatalf("element %d not unitary", i)
		}
	}
}

func TestCliffordInverses(t *testing.T) {
	g := TwoQubitCliffordGroup()
	id := linalg.CIdentity(4)
	for i := 0; i < g.Size(); i += 131 {
		prod := cmat(g.Elems[g.Elems[i].Inv].U).Mul(cmat(g.Elems[i].U))
		if !prod.EqualsUpToPhase(id, 1e-8) {
			t.Fatalf("element %d: inv * elem != identity", i)
		}
	}
}

func TestPhaseKeyIgnoresGlobalPhase(t *testing.T) {
	g := TwoQubitCliffordGroup()
	ph := complex(math.Cos(1.2), math.Sin(1.2))
	for i := 0; i < g.Size(); i += 113 {
		phased := g.Elems[i].U
		for k := range phased {
			phased[k] *= ph
		}
		if keyOf(&phased) != keyOf(&g.Elems[i].U) {
			t.Fatalf("element %d: phase keys must agree up to global phase", i)
		}
		if j := g.byKey[keyOf(&phased)]; j != i {
			t.Fatalf("element %d: phased copy keys to element %d", i, j)
		}
	}
	// Distinct elements have distinct keys: the map holds every element.
	if len(g.byKey) != g.Size() {
		t.Fatalf("%d keys for %d elements", len(g.byKey), g.Size())
	}
}

// TestComposeMatchesCMatrixMul pins mul4 to CMatrix.Mul bit for bit.
func TestComposeMatchesCMatrixMul(t *testing.T) {
	g := TwoQubitCliffordGroup()
	for _, p := range [][2]int{{3, 1000}, {777, 777}, {11519, 1}, {42, 9001}} {
		a, b := g.Elems[p[0]].U, g.Elems[p[1]].U
		got := mul4(&b, &a)
		want := cmat(b).Mul(cmat(a))
		for k := range got {
			if got[k] != want.Data[k] {
				t.Fatalf("%v entry %d: mul4 %v, CMatrix.Mul %v", p, k, got[k], want.Data[k])
			}
		}
	}
}

func TestCliffordCompositionClosure(t *testing.T) {
	g := TwoQubitCliffordGroup()
	// Compose a few arbitrary pairs: must stay in the group.
	pairs := [][2]int{{3, 1000}, {777, 777}, {11519, 1}, {42, 9001}}
	for _, p := range pairs {
		idx := g.Compose(p[0], p[1])
		if idx < 0 || idx >= g.Size() {
			t.Fatalf("composition of %v escaped the group", p)
		}
	}
}

func TestAverageCNOTsNearOneAndAHalf(t *testing.T) {
	g := TwoQubitCliffordGroup()
	avg := g.AverageCNOTs()
	// The canonical decomposition averages 1.5 CNOTs per Clifford; the BFS
	// generator-word metric should land in the same region.
	if avg < 1.0 || avg > 2.0 {
		t.Fatalf("average CNOTs per Clifford = %v, want in [1.0, 2.0]", avg)
	}
}

func TestRBNoiselessSurvival(t *testing.T) {
	noise := PairNoise{
		CNOTErrorRate: 0,
		CNOTDuration:  400,
		Qubit0:        device.QubitCal{T1: 1e12, T2: 1e12},
		Qubit1:        device.QubitCal{T1: 1e12, T2: 1e12},
	}
	cfg := Config{Lengths: []int{1, 8, 20}, Sequences: 4, Shots: 32, Seed: 3}
	out, err := Run(noise, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range out.Curve {
		if p.Survival < 0.999 {
			t.Fatalf("noiseless survival at m=%d is %v, want 1.0", p.Length, p.Survival)
		}
	}
	if out.CNOTError > 0.01 {
		t.Fatalf("noiseless CNOT error estimate %v, want ~0", out.CNOTError)
	}
}

func TestRBRecoversErrorRate(t *testing.T) {
	const truth = 0.03
	noise := PairNoise{
		CNOTErrorRate: truth,
		CNOTDuration:  400,
		Qubit0:        device.QubitCal{T1: 1e12, T2: 1e12},
		Qubit1:        device.QubitCal{T1: 1e12, T2: 1e12},
	}
	cfg := Config{Lengths: []int{1, 3, 6, 10, 16, 24, 36}, Sequences: 20, Shots: 256, Seed: 11}
	out, err := Run(noise, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.CNOTError-truth) > 0.45*truth {
		t.Fatalf("RB estimate %v too far from truth %v", out.CNOTError, truth)
	}
}

func TestRBMonotoneWithErrorRate(t *testing.T) {
	run := func(rate float64) float64 {
		noise := PairNoise{
			CNOTErrorRate: rate,
			CNOTDuration:  400,
			Qubit0:        device.QubitCal{T1: 1e12, T2: 1e12},
			Qubit1:        device.QubitCal{T1: 1e12, T2: 1e12},
		}
		out, err := Run(noise, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return out.CNOTError
	}
	lo, hi := run(0.01), run(0.10)
	if lo >= hi {
		t.Fatalf("RB not monotone: est(0.01)=%v >= est(0.10)=%v", lo, hi)
	}
}

func TestSRBSeparatesConditionalRates(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	// Ground-truth crosstalk pair on Poughkeepsie: (10-15, 11-12).
	gi := device.NewEdge(10, 15)
	gj := device.NewEdge(11, 12)
	cfg := DefaultConfig()
	indep, err := MeasureIndependent(dev, gi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	condI, _, err := MeasureSimultaneous(dev, gi, gj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if condI.CNOTError < 2*indep.CNOTError {
		t.Fatalf("SRB conditional estimate %v not clearly above independent %v (truth: %v vs %v)",
			condI.CNOTError, indep.CNOTError,
			dev.Cal.ConditionalError(gi, gj), dev.Cal.IndependentError(gi))
	}
}

func TestConfigTotalExecutions(t *testing.T) {
	cfg := PaperConfig()
	if got := cfg.TotalExecutions(); got != 7*100*1024 {
		t.Fatalf("TotalExecutions = %d, want %d", got, 7*100*1024)
	}
}

// TestRunAllocsIndependentOfShots: the trajectory loop reuses one state and
// the per-run noise table, so a run's allocations do not grow with Shots.
func TestRunAllocsIndependentOfShots(t *testing.T) {
	noise := PairNoise{
		CNOTErrorRate: 0.03,
		CNOTDuration:  400,
		Qubit0:        device.QubitCal{T1: 60e3, T2: 50e3, ReadoutError: 0.02},
		Qubit1:        device.QubitCal{T1: 80e3, T2: 90e3, ReadoutError: 0.03},
	}
	allocs := func(shots int) float64 {
		cfg := Config{Lengths: []int{1, 2, 4, 8}, Sequences: 3, Shots: shots, Seed: 5}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(noise, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a64 := allocs(8), allocs(64); a64 > a8 {
		t.Fatalf("rb.Run allocates %v at 64 shots, %v at 8", a64, a8)
	}
}
