package rb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"xtalk/internal/device"
	"xtalk/internal/linalg"
	"xtalk/internal/quant"
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

// referenceRun is Run on the generic n-qubit simulator: each Clifford's
// idle channels are Kraus sets, applied by State.ApplyKraus to one 2-qubit
// State. Run must return exactly its outcome.
func referenceRun(noise PairNoise, cfg Config) (Outcome, error) {
	g := TwoQubitCliffordGroup()
	type channel struct {
		q  int
		ks []*[4]complex128
	}
	errProb := make([]float64, g.maxCNOTs+1)
	idle := make([][]channel, g.maxCNOTs+1)
	for cnots := range idle {
		if cnots > 0 && noise.CNOTErrorRate > 0 {
			errProb[cnots] = 1 - math.Pow(1-noise.CNOTErrorRate, float64(cnots))
		}
		dur := float64(cnots)*noise.CNOTDuration + 2*device.Default1QDuration
		for q, qc := range []device.QubitCal{noise.Qubit0, noise.Qubit1} {
			if dur <= 0 || qc.T1 <= 0 {
				continue
			}
			for _, d := range quant.IdleDampings(q, dur, qc.T1, qc.T2) {
				idle[cnots] = append(idle[cnots], channel{d.Q, d.Kraus()})
			}
		}
	}
	state := quant.NewState(2)
	return run(g, cfg, func(seq []int, rng *rand.Rand) bool {
		state.Reset()
		for _, idx := range seq {
			el := &g.Elems[idx]
			state.Apply2Q(&el.U, 1, 0)
			if el.CNOTs > 0 && noise.CNOTErrorRate > 0 && rng.Float64() < errProb[el.CNOTs] {
				p0, p1 := quant.RandomPauliPair(rng)
				state.ApplyPauliPair(p0, p1, 0, 1)
			}
			for _, ch := range idle[el.CNOTs] {
				state.ApplyKraus(ch.ks, ch.q, rng)
			}
		}
		b0 := state.MeasureQubit(0, rng)
		b1 := state.MeasureQubit(1, rng)
		if rng.Float64() < noise.Qubit0.ReadoutError {
			b0 ^= 1
		}
		if rng.Float64() < noise.Qubit1.ReadoutError {
			b1 ^= 1
		}
		return b0 == 0 && b1 == 0
	})
}

// TestRunMatchesReference: the fixed-size kernel returns the generic
// simulator's outcome bit for bit (EPC, CNOTError, every Fit field, every
// survival) over paper_loop's RB shape and DefaultConfig, CNOT errors from
// none to certain, and decoherence with and without a dephasing channel,
// with no idle channel, with zero-length CNOTs, and with a damping
// probability of 0 (a zero jump operator) and of 1 (a zero no-jump
// diagonal). Readout error alternates between 0 and 0.05 across the CNOT
// errors, so every decoherence case runs with both.
//
// A threshold summed in another order is at most an ulp off, which a draw
// crosses with a chance near 2^-53, so no outcome shows it;
// quant's TestState2MatchesState puts draws on the thresholds instead.
func TestRunMatchesReference(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"paper_loop", Config{Lengths: []int{1, 2, 4, 8, 16}, Sequences: 6, Shots: 64}},
		{"default", DefaultConfig()},
	}
	base := PairNoise{
		CNOTDuration: 400,
		Qubit0:       device.QubitCal{T1: 60e3, T2: 50e3},
		Qubit1:       device.QubitCal{T1: 80e3, T2: 90e3},
	}
	decoherence := []struct {
		name string
		set  func(*PairNoise)
	}{
		{"t1t2", func(*PairNoise) {}},
		{"no-dephasing", func(n *PairNoise) { n.Qubit0.T2, n.Qubit1.T2 = 2*n.Qubit0.T1, 3*n.Qubit1.T1 }},
		{"no-idle", func(n *PairNoise) { n.Qubit0.T1, n.Qubit1.T1 = 0, 0 }},
		{"zero-cnot", func(n *PairNoise) { n.CNOTDuration = 0 }},
		{"gamma0", func(n *PairNoise) { n.Qubit0.T1, n.Qubit1.T1 = math.Inf(1), math.Inf(1) }},
		{"gamma1", func(n *PairNoise) { n.Qubit0.T1 = 1e-3 }},
		{"dephasing1", func(n *PairNoise) { n.Qubit1.T2 = 1e-3 }},
		{"short-t1t2", func(n *PairNoise) {
			n.Qubit0.T1, n.Qubit0.T2, n.Qubit1.T1, n.Qubit1.T2 = 2e3, 1.5e3, 1e3, 1.9e3
		}},
	}
	seed := int64(0)
	for _, shape := range shapes {
		for i, rate := range []float64{0, 0.01, 0.3, 1} {
			for j, deco := range decoherence {
				noise := base
				noise.CNOTErrorRate = rate
				deco.set(&noise)
				readout := 0.05 * float64((i+j)%2)
				noise.Qubit0.ReadoutError, noise.Qubit1.ReadoutError = readout, readout
				cfg := shape.cfg
				seed++
				cfg.Seed = seed
				name := fmt.Sprintf("%s/rate%v/%s/readout%v", shape.name, rate, deco.name, readout)
				got, gotErr := Run(noise, cfg)
				want, wantErr := referenceRun(noise, cfg)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: outcome %+v, reference %+v", name, got, want)
				}
			}
		}
	}
}
