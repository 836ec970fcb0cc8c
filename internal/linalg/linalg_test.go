package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixMul(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrix(3, 2)
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-12 {
			t.Fatalf("product[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	v := a.MulVec([]float64{5, 6})
	if v[0] != 17 || v[1] != 39 {
		t.Fatalf("MulVec = %v", v)
	}
}

func TestIdentityAndTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatal("transpose values wrong")
	}
	p := tr.Mul(Identity(2))
	for i := range tr.Data {
		if p.Data[i] != tr.Data[i] {
			t.Fatal("multiplication by identity changed matrix")
		}
	}
}

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
		p := m.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(p.At(i, j)-want) > 1e-8 {
					t.Fatalf("trial %d: M*M^-1 [%d,%d] = %v", trial, i, j, p.At(i, j))
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

func TestSolveLinear(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{2, 1, 1, 3})
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solution %v", x)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Overdetermined but consistent: y = 2x + 1.
	a := NewMatrix(4, 2)
	b := make([]float64, 4)
	for i := 0; i < 4; i++ {
		x := float64(i)
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-9 || math.Abs(coef[1]-1) > 1e-9 {
		t.Fatalf("coefficients %v", coef)
	}
}

func TestFitExpDecayRecoversParameters(t *testing.T) {
	truth := ExpDecayFit{A: 0.7, Alpha: 0.93, B: 0.27}
	var ms, ys []float64
	for _, m := range []float64{1, 2, 4, 8, 16, 24, 36} {
		ms = append(ms, m)
		ys = append(ys, truth.A*math.Pow(truth.Alpha, m)+truth.B)
	}
	fit, err := FitExpDecay(ms, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.005 {
		t.Fatalf("alpha %v, want %v", fit.Alpha, truth.Alpha)
	}
	if math.Abs(fit.A-truth.A) > 0.05 || math.Abs(fit.B-truth.B) > 0.05 {
		t.Fatalf("A=%v B=%v, want %v/%v", fit.A, fit.B, truth.A, truth.B)
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
	fit, err := FitExpDecay(ms, ys)
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
	fit, err := FitExpDecay(ms, ys)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha != 1 {
		t.Fatalf("flat data alpha %v, want 1 (no decay)", fit.Alpha)
	}
}

func TestFitExpDecayErrors(t *testing.T) {
	if _, err := FitExpDecay([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := FitExpDecay([]float64{1, 2}, []float64{1, 0.5}); err == nil {
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

// Property: (A*B)^T == B^T * A^T for random real matrices.
func TestTransposeProductProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewMatrix(3, 4)
		b := NewMatrix(4, 2)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		lhs := a.Mul(b).Transpose()
		rhs := b.Transpose().Mul(a.Transpose())
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: solving A x = b then recomputing A x reproduces b.
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
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		back := a.MulVec(x)
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
