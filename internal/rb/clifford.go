// Package rb implements randomized benchmarking (RB) and simultaneous
// randomized benchmarking (SRB), the paper's crosstalk characterization
// primitive (Sections 4.2, 8.1). The two-qubit Clifford group is enumerated
// exactly from its generators; RB sequences are composed, inverted and
// executed as quantum trajectories against the device's error rates; and the
// survival curve is fitted to A*alpha^m + B to extract error per Clifford,
// which converts to a CNOT error estimate by dividing by the average number
// of CNOTs per Clifford (the paper uses 1.5).
package rb

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"

	"xtalk/internal/linalg"
	"xtalk/internal/quant"
)

// Clifford is one element of the two-qubit Clifford group.
type Clifford struct {
	// U is the 4x4 unitary (up to global phase), row-major in Apply2Q's
	// |q1 q0> basis order.
	U [16]complex128
	// CNOTs is the number of CNOT generator applications on a shortest
	// generator word reaching this element; used to model per-Clifford error
	// exposure and duration.
	CNOTs int
	// Inv is the index of the inverse element.
	Inv int
}

// Group is the enumerated two-qubit Clifford group (11520 elements up to
// global phase).
type Group struct {
	Elems    []Clifford
	byKey    map[phaseKey]int
	maxCNOTs int
}

// TwoQubitCliffordGroupSize is |C2| up to global phase.
const TwoQubitCliffordGroupSize = 11520

var (
	groupOnce sync.Once
	group     *Group
)

// phaseKey fingerprints a unitary modulo global phase: the real and
// imaginary parts of its entries, rounded to 6 decimal places, after the
// first entry of magnitude above 1e-9 is rotated onto the positive real
// axis. Two Cliffords equal up to phase share a key.
type phaseKey [32]int32

func keyOf(u *[16]complex128) phaseKey {
	norm := *u
	for _, v := range u {
		if cmplx.Abs(v) > 1e-9 {
			inv := cmplx.Conj(v / complex(cmplx.Abs(v), 0))
			for i := range norm {
				norm[i] *= inv
			}
			break
		}
	}
	const scale = 1e6
	var k phaseKey
	for i, v := range norm {
		k[2*i] = int32(math.Round(real(v) * scale))
		k[2*i+1] = int32(math.Round(imag(v) * scale))
	}
	return k
}

// mul4 returns the 4x4 product a*b, summed in CMatrix.Mul's order (zero
// entries of a skipped) so that it matches that product bit for bit.
func mul4(a, b *[16]complex128) [16]complex128 {
	var out [16]complex128
	for i := 0; i < 4; i++ {
		for k := 0; k < 4; k++ {
			x := a[i*4+k]
			if x == 0 {
				continue
			}
			for j := 0; j < 4; j++ {
				out[i*4+j] += x * b[k*4+j]
			}
		}
	}
	return out
}

// dagger4 returns the conjugate transpose of a 4x4 matrix.
func dagger4(u *[16]complex128) [16]complex128 {
	var t [16]complex128
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			t[j*4+i] = cmplx.Conj(u[i*4+j])
		}
	}
	return t
}

func kron2(a, b [4]complex128) [16]complex128 {
	am := linalg.NewCMatrix(2, 2)
	copy(am.Data, a[:])
	bm := linalg.NewCMatrix(2, 2)
	copy(bm.Data, b[:])
	var u [16]complex128
	copy(u[:], am.Kron(bm).Data)
	return u
}

// TwoQubitCliffordGroup enumerates (and caches) the full two-qubit Clifford
// group by breadth-first closure over the generators
// {H0, H1, S0, S1, CNOT01}.
func TwoQubitCliffordGroup() *Group {
	groupOnce.Do(func() {
		group = buildGroup()
	})
	return group
}

func buildGroup() *Group {
	gens := []struct {
		u     [16]complex128
		cnots int
	}{
		{kron2(quant.MatH, quant.MatI), 0},
		{kron2(quant.MatI, quant.MatH), 0},
		{kron2(quant.MatS, quant.MatI), 0},
		{kron2(quant.MatI, quant.MatS), 0},
		{quant.MatCNOT, 1},
	}
	g := &Group{Elems: make([]Clifford, 0, TwoQubitCliffordGroupSize), byKey: make(map[phaseKey]int, TwoQubitCliffordGroupSize)}
	id := Clifford{U: [16]complex128{0: 1, 5: 1, 10: 1, 15: 1}}
	g.Elems = append(g.Elems, id)
	g.byKey[keyOf(&id.U)] = 0
	for frontier := []int{0}; len(frontier) > 0; {
		var next []int
		for _, idx := range frontier {
			base := g.Elems[idx]
			for _, gen := range gens {
				prod := mul4(&gen.u, &base.U)
				key := keyOf(&prod)
				if _, seen := g.byKey[key]; seen {
					continue
				}
				g.byKey[key] = len(g.Elems)
				g.Elems = append(g.Elems, Clifford{U: prod, CNOTs: base.CNOTs + gen.cnots})
				g.maxCNOTs = max(g.maxCNOTs, base.CNOTs+gen.cnots)
				next = append(next, len(g.Elems)-1)
			}
		}
		frontier = next
	}
	// Resolve inverses.
	for i := range g.Elems {
		inv := dagger4(&g.Elems[i].U)
		j, ok := g.byKey[keyOf(&inv)]
		if !ok {
			panic("rb: clifford inverse not found in group")
		}
		g.Elems[i].Inv = j
	}
	return g
}

// Size returns the number of group elements.
func (g *Group) Size() int { return len(g.Elems) }

// Sample returns a uniformly random element index.
func (g *Group) Sample(rng *rand.Rand) int { return rng.Intn(len(g.Elems)) }

// Compose returns the index of elems[b] * elems[a] (apply a first).
func (g *Group) Compose(a, b int) int {
	prod := mul4(&g.Elems[b].U, &g.Elems[a].U)
	idx, ok := g.byKey[keyOf(&prod)]
	if !ok {
		panic("rb: clifford composition left the group")
	}
	return idx
}

// AverageCNOTs returns the mean CNOT count per element (approximately 1.5,
// the figure the paper uses to convert error per Clifford to CNOT error).
func (g *Group) AverageCNOTs() float64 {
	total := 0
	for i := range g.Elems {
		total += g.Elems[i].CNOTs
	}
	return float64(total) / float64(len(g.Elems))
}
