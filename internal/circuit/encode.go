package circuit

import (
	"container/heap"
	"encoding/binary"
	"math"
)

// Canonical returns a semantically equivalent circuit whose gate order
// depends only on the circuit's dependency structure and gate contents, not
// on the order gates happened to be appended in. Two submissions that differ
// only in the interleaving of independent (non-conflicting) gates produce
// identical canonical circuits, which is what makes content-addressed
// compilation caching sound: the cache key is computed over the canonical
// form (see Encode).
//
// The order is the unique greedy topological order of the dependency DAG
// that always emits the smallest ready gate first, where gates compare by
// (Kind, Qubits, Params) lexicographically. The comparison is total on any
// ready set: two ready gates can never have identical content, because
// identical qubit lists imply a shared qubit and hence a dependency.
func (c *Circuit) Canonical() *Circuit {
	d := c.DAG()
	n := len(c.Gates)
	indeg := make([]int, n)
	for i, preds := range d.Pred {
		indeg[i] = len(preds)
	}
	ready := &gateHeap{circ: c}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.ids = append(ready.ids, i)
		}
	}
	heap.Init(ready)
	out := New(c.NQubits)
	for ready.Len() > 0 {
		id := heap.Pop(ready).(int)
		g := c.Gates[id]
		out.Add(g.Kind, g.Qubits, g.Params...)
		for _, s := range d.Succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(ready, s)
			}
		}
	}
	return out
}

// gateHeap is a min-heap of gate IDs ordered by gate content.
type gateHeap struct {
	circ *Circuit
	ids  []int
}

func (h *gateHeap) Len() int { return len(h.ids) }
func (h *gateHeap) Less(i, j int) bool {
	return lessGate(h.circ.Gates[h.ids[i]], h.circ.Gates[h.ids[j]])
}
func (h *gateHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *gateHeap) Push(x interface{}) { h.ids = append(h.ids, x.(int)) }
func (h *gateHeap) Pop() interface{} {
	x := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return x
}

// lessGate orders gates by (Kind, Qubits, Params), lexicographically.
// Params compare by IEEE-754 bit pattern so the order is total even for
// values that compare equal numerically but not bitwise (-0.0 vs 0.0).
func lessGate(a, b Gate) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	for i := 0; i < len(a.Qubits) && i < len(b.Qubits); i++ {
		if a.Qubits[i] != b.Qubits[i] {
			return a.Qubits[i] < b.Qubits[i]
		}
	}
	if len(a.Qubits) != len(b.Qubits) {
		return len(a.Qubits) < len(b.Qubits)
	}
	for i := 0; i < len(a.Params) && i < len(b.Params); i++ {
		pa, pb := math.Float64bits(a.Params[i]), math.Float64bits(b.Params[i])
		if pa != pb {
			return pa < pb
		}
	}
	return len(a.Params) < len(b.Params)
}

// encodeMagic versions the wire encoding; bump it whenever the byte layout
// or the canonicalization rule changes, so stale cache keys can never alias
// fresh ones.
const encodeMagic = "xtalkc1\n"

// Encode returns the canonical binary encoding of the circuit: the gates of
// Canonical() serialized in order with a fixed, platform-independent byte
// layout. Semantically identical circuits (equal up to reordering of
// independent gates) encode to identical byte strings; any semantic
// difference — qubit count, gate set, operand order, parameter bits —
// changes the encoding. The encoding is the content-addressing basis for
// the compilation cache (pipeline.Pipeline.Fingerprint hashes it together
// with the device identity and compile configuration).
func (c *Circuit) Encode() []byte {
	canon := c.Canonical()
	buf := make([]byte, 0, 16+12*len(canon.Gates))
	buf = append(buf, encodeMagic...)
	buf = binary.AppendUvarint(buf, uint64(canon.NQubits))
	buf = binary.AppendUvarint(buf, uint64(len(canon.Gates)))
	for _, g := range canon.Gates {
		buf = binary.AppendUvarint(buf, uint64(g.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(g.Qubits)))
		for _, q := range g.Qubits {
			buf = binary.AppendUvarint(buf, uint64(q))
		}
		buf = binary.AppendUvarint(buf, uint64(len(g.Params)))
		for _, p := range g.Params {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(p))
		}
	}
	return buf
}
