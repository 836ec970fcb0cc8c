// Package metrics implements the paper's evaluation metrics (Section 8.4):
// Bell-state tomography error for SWAP circuits, cross-entropy for QAOA,
// success-probability error for Hidden Shift, and readout-error mitigation
// by confusion-matrix inversion.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"xtalk/internal/linalg"
)

// Distribution is a probability distribution over bitstring outcomes.
type Distribution map[string]float64

// sortedKeys returns the outcomes of the distributions, each once, in
// ascending order. Sums run in this order so that their last bits do not
// depend on map iteration order.
func sortedKeys(ds ...Distribution) []string {
	var keys []string
	for _, d := range ds {
		for k := range d {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return slices.Compact(keys)
}

// Normalize rescales the distribution to sum to 1 (no-op for empty).
func (d Distribution) Normalize() {
	var s float64
	for _, k := range sortedKeys(d) {
		s += d[k]
	}
	if s <= 0 {
		return
	}
	for k := range d {
		d[k] /= s
	}
}

// TotalVariationDistance returns 0.5 * sum |p - q|.
func TotalVariationDistance(p, q Distribution) float64 {
	var s float64
	for _, k := range sortedKeys(p, q) {
		s += math.Abs(p[k] - q[k])
	}
	return s / 2
}

// CrossEntropy returns -sum_x p_ideal(x) * log p_measured(x), the paper's
// QAOA quality metric (lower is better; equals the ideal distribution's
// entropy when measured == ideal). Missing measured mass is floored to avoid
// infinities, as standard.
func CrossEntropy(ideal, measured Distribution) float64 {
	const floor = 1e-6
	var s float64
	for _, x := range sortedKeys(ideal) {
		p := ideal[x]
		if p <= 0 {
			continue
		}
		q := measured[x]
		if q < floor {
			q = floor
		}
		s -= p * math.Log(q)
	}
	return s
}

// Entropy returns the Shannon entropy (nats) of the distribution: the
// theoretical floor of CrossEntropy against itself.
func Entropy(p Distribution) float64 {
	var s float64
	for _, k := range sortedKeys(p) {
		if v := p[k]; v > 0 {
			s -= v * math.Log(v)
		}
	}
	return s
}

// SuccessProbability returns the probability mass on the expected bitstring
// (the Hidden Shift metric: error rate = 1 - success).
func SuccessProbability(measured Distribution, want string) float64 {
	return measured[want]
}

// MitigateReadout inverts a tensor-product readout confusion model: each
// measured qubit i flips with probability flip[i]. The 2x2 confusion matrix
// per qubit is [[1-f, f], [f, 1-f]]; its inverse is applied per qubit to the
// outcome distribution (the standard Qiskit Ignis mitigation the paper
// uses). Negative corrected probabilities are clipped and the result
// renormalized.
func MitigateReadout(measured Distribution, flip []float64) (Distribution, error) {
	if len(measured) == 0 {
		return Distribution{}, nil
	}
	n := -1
	for k := range measured {
		n = len(k)
		break
	}
	if len(flip) != n {
		return nil, fmt.Errorf("metrics: %d flip rates for %d-bit outcomes", len(flip), n)
	}
	// Build per-qubit inverse confusion matrices.
	invs := make([]*linalg.Matrix, n)
	for i, f := range flip {
		m := linalg.NewMatrix(2, 2)
		m.Set(0, 0, 1-f)
		m.Set(0, 1, f)
		m.Set(1, 0, f)
		m.Set(1, 1, 1-f)
		inv, err := m.Inverse()
		if err != nil {
			return nil, fmt.Errorf("metrics: confusion matrix for qubit %d singular: %w", i, err)
		}
		invs[i] = inv
	}
	// Apply the Kronecker-factored inverse one qubit at a time.
	cur := make(Distribution, len(measured))
	for k, v := range measured {
		cur[k] = v
	}
	for i := 0; i < n; i++ {
		// Each outcome of next takes at most two terms, and float addition
		// commutes, so this pass is exact in any order; only the sum in
		// Normalize needs a fixed order.
		next := Distribution{}
		for k, v := range cur {
			if v == 0 {
				continue
			}
			b := int(k[i] - '0')
			for out := 0; out < 2; out++ {
				w := invs[i].At(out, b) * v
				if w == 0 {
					continue
				}
				nk := k[:i] + string(byte('0'+out)) + k[i+1:]
				next[nk] += w
			}
		}
		cur = next
	}
	for k, v := range cur {
		if v < 0 {
			cur[k] = 0
		}
	}
	cur.Normalize()
	return cur, nil
}

// BellStateError computes the paper's SWAP-circuit metric: the deviation of
// the measured two-qubit distribution from the ideal Bell-state outcome
// statistics. State tomography on hardware yields a fidelity in [0, 1]; our
// simulated analogue measures in the computational basis where the ideal
// Bell state gives P(00)=P(11)=0.5, and reports the total variation distance
// from that ideal (0 = perfect, 1 = fully wrong).
func BellStateError(measured Distribution) float64 {
	ideal := Distribution{"00": 0.5, "11": 0.5}
	return TotalVariationDistance(ideal, measured)
}

// TopOutcomes returns the k most probable outcomes, for reporting.
func TopOutcomes(d Distribution, k int) []string {
	keys := make([]string, 0, len(d))
	for key := range d {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if d[keys[i]] != d[keys[j]] {
			return d[keys[i]] > d[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys
}
