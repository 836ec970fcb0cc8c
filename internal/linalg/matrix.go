// Package linalg provides small dense linear-algebra kernels used by the
// simulator, tomography and curve-fitting code. Everything is written for
// the tiny matrices that appear in this project (2x2 .. ~32x32), so the
// implementations favour clarity over blocking or vectorization.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrSingular is returned when a matrix inversion or linear solve encounters
// a (numerically) singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Inverse returns the inverse of a square matrix using Gauss-Jordan
// elimination with partial pivoting.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in this column.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		p := a.At(col, col)
		for j := 0; j < n; j++ {
			a.Set(col, j, a.At(col, j)/p)
			inv.Set(col, j, inv.At(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
				inv.Set(r, j, inv.At(r, j)-f*inv.At(col, j))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, i, j int) {
	for c := 0; c < m.Cols; c++ {
		m.Data[i*m.Cols+c], m.Data[j*m.Cols+c] = m.Data[j*m.Cols+c], m.Data[i*m.Cols+c]
	}
}

// CMatrix is a dense, row-major complex matrix (used for unitaries).
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zero complex matrix with the given shape.
func NewCMatrix(rows, cols int) *CMatrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// CIdentity returns the n x n complex identity.
func CIdentity(n int) *CMatrix {
	m := NewCMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *CMatrix) Clone() *CMatrix {
	c := NewCMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Mul returns the matrix product m*other.
func (m *CMatrix) Mul(other *CMatrix) *CMatrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewCMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Data[i*out.Cols+j] += a * other.At(k, j)
			}
		}
	}
	return out
}

// Dagger returns the conjugate transpose of m.
func (m *CMatrix) Dagger() *CMatrix {
	t := NewCMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return t
}

// Kron returns the Kronecker product m ⊗ other.
func (m *CMatrix) Kron(other *CMatrix) *CMatrix {
	out := NewCMatrix(m.Rows*other.Rows, m.Cols*other.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			a := m.At(i, j)
			if a == 0 {
				continue
			}
			for k := 0; k < other.Rows; k++ {
				for l := 0; l < other.Cols; l++ {
					out.Set(i*other.Rows+k, j*other.Cols+l, a*other.At(k, l))
				}
			}
		}
	}
	return out
}

// IsUnitary reports whether m^† m = I within tolerance tol.
func (m *CMatrix) IsUnitary(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	p := m.Dagger().Mul(m)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Cols; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// EqualsUpToPhase reports whether m = e^{iφ} other for some global phase φ,
// within tolerance tol. Used to canonicalize unitaries when enumerating the
// Clifford group.
func (m *CMatrix) EqualsUpToPhase(other *CMatrix, tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	// Find the largest-magnitude entry of m to determine the phase.
	var phase complex128
	found := false
	for i, v := range m.Data {
		if cmplx.Abs(v) > tol {
			if cmplx.Abs(other.Data[i]) < tol {
				return false
			}
			phase = other.Data[i] / v
			found = true
			break
		}
	}
	if !found {
		return true // both (near) zero
	}
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]*phase-other.Data[i]) > tol {
			return false
		}
	}
	return true
}
