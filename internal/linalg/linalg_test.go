package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		// Make it well-conditioned by adding n*I.
		for i := 0; i < n; i++ {
			m.Set(i, i, m.At(i, i)+float64(n))
		}
		inv, err := m.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j := 0; j < n; j++ {
			col := make([]float64, n)
			for k := range col {
				col[k] = inv.At(k, j)
			}
			for i, p := range mulVec(m, col) {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(p-want) > 1e-8 {
					t.Fatalf("trial %d: M*M^-1 [%d,%d] = %v", trial, i, j, p)
				}
			}
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 2, 4})
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestFitExpDecayNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	truth := ExpDecayFit{A: 0.75, Alpha: 0.9, B: 0.25}
	var ms, ys []float64
	for _, m := range []float64{1, 2, 3, 5, 8, 12, 20, 32} {
		ms = append(ms, m)
		ys = append(ys, truth.A*math.Pow(truth.Alpha, m)+truth.B+0.01*rng.NormFloat64())
	}
	fit, err := FitExpDecayFixedB(ms, ys, truth.B)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.03 {
		t.Fatalf("alpha %v, want ~%v", fit.Alpha, truth.Alpha)
	}
}

func TestFitExpDecayFixedB(t *testing.T) {
	truth := ExpDecayFit{A: 0.7, Alpha: 0.85, B: 0.25}
	var ms, ys []float64
	for _, m := range []float64{1, 2, 4, 8, 16} {
		ms = append(ms, m)
		ys = append(ys, truth.A*math.Pow(truth.Alpha, m)+truth.B)
	}
	fit, err := FitExpDecayFixedB(ms, ys, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.003 {
		t.Fatalf("alpha %v, want %v", fit.Alpha, truth.Alpha)
	}
	if fit.B != 0.25 {
		t.Fatalf("B %v must stay pinned", fit.B)
	}
}

func TestFitExpDecayFlatData(t *testing.T) {
	ms := []float64{1, 5, 10, 20}
	ys := []float64{1, 1, 1, 1}
	fit, err := FitExpDecayFixedB(ms, ys, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha != 1 || fit.A != 0.75 {
		t.Fatalf("flat data alpha %v A %v, want 1 (no decay) and 0.75", fit.Alpha, fit.A)
	}
}

func TestFitExpDecayErrors(t *testing.T) {
	if _, err := FitExpDecayFixedB([]float64{1, 2}, []float64{1}, 0.25); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := FitExpDecayFixedB([]float64{1}, []float64{0.5}, 0.25); err == nil {
		t.Fatal("expected too-few-points error")
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if math.Abs(StdDev(xs)-2.138) > 0.01 {
		t.Fatalf("stddev %v", StdDev(xs))
	}
	if g := GeoMean([]float64{1, 100}); math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean %v", g)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || GeoMean(nil) != 0 {
		t.Fatal("empty-input helpers should return 0")
	}
}

func TestCMatrixKronAndDagger(t *testing.T) {
	x := NewCMatrix(2, 2)
	x.Set(0, 1, 1)
	x.Set(1, 0, 1)
	id := CIdentity(2)
	k := x.Kron(id)
	if k.Rows != 4 || k.At(0, 2) != 1 || k.At(2, 0) != 1 || k.At(0, 1) != 0 {
		t.Fatalf("X (x) I wrong: %v", k.Data)
	}
	y := NewCMatrix(2, 2)
	y.Set(0, 1, -1i)
	y.Set(1, 0, 1i)
	d := y.Dagger()
	if d.At(0, 1) != -1i || d.At(1, 0) != 1i {
		t.Fatalf("Y dagger should equal Y: %v", d.Data)
	}
	if !y.IsUnitary(1e-12) {
		t.Fatal("Y must be unitary")
	}
}

func TestEqualsUpToPhase(t *testing.T) {
	h := NewCMatrix(2, 2)
	s := 1 / math.Sqrt2
	h.Set(0, 0, complex(s, 0))
	h.Set(0, 1, complex(s, 0))
	h.Set(1, 0, complex(s, 0))
	h.Set(1, 1, complex(-s, 0))
	phased := h.Clone()
	ph := complex(math.Cos(1.2), math.Sin(1.2))
	for i := range phased.Data {
		phased.Data[i] *= ph
	}
	if !h.EqualsUpToPhase(phased, 1e-9) {
		t.Fatal("global phase must be ignored")
	}
	other := CIdentity(2)
	if h.EqualsUpToPhase(other, 1e-9) {
		t.Fatal("H != I")
	}
}

// mulVec is the matrix-vector product the round-trip checks recompute with.
func mulVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		for j, x := range v {
			out[i] += m.At(i, j) * x
		}
	}
	return out
}

// Property: solving A x = b with A's inverse, then recomputing A x,
// reproduces b.
func TestSolveRoundTripProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		inv, err := a.Inverse()
		if err != nil {
			return false
		}
		back := mulVec(a, mulVec(inv, b))
		for i := range b {
			if math.Abs(back[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
