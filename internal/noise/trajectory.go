package noise

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"xtalk/internal/quant"
)

// The executor runs its shots as a trajectory tree. Everything a shot
// draws is independent of its state: which steps draw, how many values a
// Pauli error's rejection loop takes, and the readout flips. A Kraus branch
// or a measurement outcome only compares a draw r with a threshold that the
// state sets. So a chunk of shots is drawn first, shot by shot in the order
// a shot-by-shot simulation consumes the RNG stream. The step table is then
// walked depth-first over groups of shots that share a state. Each kernel
// runs once per group. Where a group's shots disagree (a Kraus branch, an
// outcome, a Pauli error), the group splits: every child but the largest
// runs from a copy of the state, and the largest continues in place. A shot
// thus sees exactly the kernels, inputs and float expressions it would see
// alone, and the histogram keeps its bits.
//
// Memory is bounded by construction. Draws are held for at most chunkShots
// shots. A child that is not the largest holds at most half its parent's
// shots, and a group of one shot never splits, so at most
// floor(log2(chunkShots)) copies are live at once, on top of the root
// state. They are allocated together at a run's first split and reused as
// a stack. A finished run's tree goes back to treePool, so the next run
// (often on a new Executor) reuses its columns, buffers and states.

// chunkShots is the number of shots whose draws are held at once.
const chunkShots = 2048

// maxBranches bounds the children of a split: a Pauli error's 16 codes
// (none, then the 15 non-identity pairs). A Kraus set has at most as many
// operators.
const maxBranches = 16

// tree holds one run's step table and the chunk being walked.
type tree struct {
	steps []step
	// end is one past the last measurement. Later steps still draw, but
	// nothing they do to the state reaches a bit, so the walk stops there.
	end int
	// rcol and ccol are a step's columns of real draws (opKraus and
	// opMeasure draws compared with a threshold) and of discrete draws (an
	// opMeasure readout flip, an opPauli code: 0 for no error, else
	// p0<<2|p1).
	rcol, ccol []int
	// drawing lists the steps that draw, in step order.
	drawing []int
	// n is the chunk's shot count, the stride of every column.
	n    int
	r    []float64 // r[rcol*n+shot]
	c    []uint8   // c[ccol*n+shot]
	bits []byte    // bits[shot*nbits:][:nbits] is the shot's bitstring
	// nbits is the number of measurement slots.
	nbits int
	// idx lists the chunk's shots in group order: every group is a range
	// of it. key is, per position, the child its shot takes at the split
	// being classified; tmp is the partition's scatter buffer.
	idx, tmp []int32
	key      []uint8
	acc      []float64 // Kraus thresholds of the split being classified
	nq       int
	root     *quant.State
	// copies are the split states, used as a stack: live of them are in
	// use. There are at least floor(log2(len(idx))) of them, allocated at
	// the first split that finds none.
	copies []quant.State
	live   int
	// outcome maps a bitstring to its index in tally.
	outcome map[string]int
	tally   []int
}

// treePool recycles trees between runs.
var treePool = sync.Pool{New: func() any { return &tree{outcome: map[string]int{}} }}

// resize returns a length-n slice, reusing s's backing array when it is
// large enough. The contents are unspecified: every user writes an element
// before reading it.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newTree returns a tree from treePool, sized for chunks of up to maxShots
// shots over nq compact qubits and nbits measurement slots, with an empty
// histogram. Release it when the run is done.
func newTree(steps []step, nq, nbits, maxShots int) *tree {
	t := treePool.Get().(*tree)
	t.steps, t.nbits, t.nq, t.end = steps, nbits, nq, 0
	t.rcol = resize(t.rcol, len(steps))
	t.ccol = resize(t.ccol, len(steps))
	t.drawing = t.drawing[:0]
	nr, nc, nacc := 0, 0, 0
	for i := range steps {
		t.rcol[i], t.ccol[i] = -1, -1
		switch st := &steps[i]; st.kind {
		case opKraus:
			if len(st.ks) > maxBranches {
				panic(fmt.Sprintf("noise: Kraus set of %d operators", len(st.ks)))
			}
			nacc = max(nacc, len(st.ks)-1)
			t.rcol[i], nr = nr, nr+1
		case opMeasure:
			t.rcol[i], nr = nr, nr+1
			t.ccol[i], nc = nc, nc+1
			t.end = i + 1
		case opPauli:
			t.ccol[i], nc = nc, nc+1
		default:
			continue
		}
		t.drawing = append(t.drawing, i)
	}
	t.r = resize(t.r, nr*maxShots)
	t.c = resize(t.c, nc*maxShots)
	t.bits = resize(t.bits, nbits*maxShots)
	t.idx = resize(t.idx, maxShots)
	t.tmp = resize(t.tmp, maxShots)
	t.key = resize(t.key, maxShots)
	t.acc = resize(t.acc, nacc)
	if t.root == nil || t.root.N != nq {
		t.root = quant.NewState(nq)
	}
	if len(t.copies) > 0 && (t.copies[0].N != nq || len(t.copies) < bits.Len(uint(maxShots))-1) {
		t.copies = nil
	}
	clear(t.outcome)
	t.tally = t.tally[:0]
	return t
}

// release returns t to treePool; t must not be used afterwards.
func (t *tree) release() {
	t.steps = nil
	treePool.Put(t)
}

// run draws the next n shots from rng and tallies their outcomes.
func (t *tree) run(n int, rng *rand.Rand) {
	t.draw(n, rng)
	for i := range t.idx[:n] {
		t.idx[i] = int32(i)
	}
	t.root.Reset()
	t.walk(0, 0, n, t.root)
}

// draw fills the columns for n shots, shot by shot and step by step: the
// order in which a shot-by-shot simulation draws.
func (t *tree) draw(n int, rng *rand.Rand) {
	t.n = n
	for shot := 0; shot < n; shot++ {
		for _, i := range t.drawing {
			switch st := &t.steps[i]; st.kind {
			case opKraus:
				t.r[t.rcol[i]*n+shot] = rng.Float64()
			case opMeasure:
				t.r[t.rcol[i]*n+shot] = rng.Float64()
				var flip uint8
				if st.readout && rng.Float64() < st.p {
					flip = 1
				}
				t.c[t.ccol[i]*n+shot] = flip
			case opPauli:
				var code uint8
				if rng.Float64() < st.p {
					p0, p1 := quant.RandomPauliPair(rng)
					code = uint8(p0)<<2 | uint8(p1)
				}
				t.c[t.ccol[i]*n+shot] = code
			}
		}
	}
}

// walk runs the group idx[lo:hi], whose shots share state s, from step pos
// to the end and tallies its shots.
func (t *tree) walk(pos, lo, hi int, s *quant.State) {
	for ; pos < t.end; pos++ {
		st := &t.steps[pos]
		var k int
		switch st.kind {
		case opKraus:
			k = t.classifyKraus(pos, lo, hi, s)
		case opMeasure:
			k = t.classifyMeasure(pos, lo, hi, s)
		case opPauli:
			k = t.classifyPauli(pos, lo, hi)
		default:
			st.apply(s)
			continue
		}
		if pos == t.end-1 {
			break // the last measurement: no later step reads the state
		}
		if k < 0 {
			lo, hi, k = t.split(pos, lo, hi, s)
		}
		act(st, k, s)
	}
	t.leaf(lo, hi)
}

// act applies child k of step st's split to s.
func act(st *step, k int, s *quant.State) {
	switch st.kind {
	case opKraus:
		s.ApplyKrausBranch(st.ks[k], st.q0)
	case opMeasure:
		s.Collapse(st.q0, k)
	case opPauli:
		if k != 0 {
			s.ApplyPauliPair(quant.Pauli(k>>2), quant.Pauli(k&3), st.q0, st.q1)
		}
	}
}

// classifyKraus records the branch every shot of the group takes at the
// Kraus step pos. It returns the branch when all agree, else -1.
func (t *tree) classifyKraus(pos, lo, hi int, s *quant.State) int {
	st := &t.steps[pos]
	last := len(st.ks) - 1
	acc := t.acc[:last]
	s.KrausThresholds(st.ks, st.q0, acc)
	// Draws lie in [0, 1), so a first threshold of 1 decides every shot:
	// the case of an idle qubit in |0>.
	if last == 0 || acc[0] >= 1 {
		return 0
	}
	r := t.r[t.rcol[pos]*t.n:][:t.n]
	for p := lo; p < hi; p++ {
		x := r[t.idx[p]]
		k := 0
		for k < last && !(x < acc[k]) {
			k++
		}
		t.key[p] = uint8(k)
	}
	return t.common(lo, hi)
}

// classifyMeasure records the outcome every shot of the group measures at
// step pos and writes its bit, readout flip included. It returns the
// outcome when all agree, else -1.
func (t *tree) classifyMeasure(pos, lo, hi int, s *quant.State) int {
	st := &t.steps[pos]
	p1 := s.ProbOne(st.q0)
	r := t.r[t.rcol[pos]*t.n:][:t.n]
	flip := t.c[t.ccol[pos]*t.n:][:t.n]
	for p := lo; p < hi; p++ {
		shot := t.idx[p]
		var out uint8
		if r[shot] < p1 {
			out = 1
		}
		t.key[p] = out
		t.bits[int(shot)*t.nbits+st.slot] = '0' + (out ^ flip[shot])
	}
	return t.common(lo, hi)
}

// classifyPauli records the Pauli error code every shot of the group draws
// at step pos. It returns the code when all agree, else -1.
func (t *tree) classifyPauli(pos, lo, hi int) int {
	code := t.c[t.ccol[pos]*t.n:][:t.n]
	for p := lo; p < hi; p++ {
		t.key[p] = code[t.idx[p]]
	}
	return t.common(lo, hi)
}

// common returns the key every position of [lo, hi) holds, or -1.
func (t *tree) common(lo, hi int) int {
	k := t.key[lo]
	for _, x := range t.key[lo+1 : hi] {
		if x != k {
			return -1
		}
	}
	return int(k)
}

// split partitions the group idx[lo:hi] by key, stably, and walks every
// child but the largest from a copy of s. It returns the largest child's
// range and key, which the caller continues in s.
func (t *tree) split(pos, lo, hi int, s *quant.State) (int, int, int) {
	// start[k] .. start[k+1] will be child k's range.
	var start [maxBranches + 1]int
	for _, k := range t.key[lo:hi] {
		start[k+1]++
	}
	big := 0
	for k := 1; k < maxBranches; k++ {
		if start[k+1] > start[big+1] {
			big = k
		}
	}
	start[0] = lo
	for k := 0; k < maxBranches; k++ {
		start[k+1] += start[k]
	}
	next := start
	for p := lo; p < hi; p++ {
		k := t.key[p]
		t.tmp[next[k]] = t.idx[p]
		next[k]++
	}
	copy(t.idx[lo:hi], t.tmp[lo:hi])
	st := &t.steps[pos]
	for k := 0; k < maxBranches; k++ {
		if k == big || start[k] == start[k+1] {
			continue
		}
		if t.copies == nil {
			t.copies = quant.NewStates(bits.Len(uint(len(t.idx)))-1, t.nq)
		}
		c := &t.copies[t.live]
		t.live++
		copy(c.Amp, s.Amp)
		act(st, k, c)
		t.walk(pos+1, start[k], start[k+1], c)
		t.live--
	}
	return start[big], start[big+1], big
}

// leaf tallies the bitstrings of the group idx[lo:hi]. Looking an outcome
// up before inserting it allocates only a new outcome's key.
func (t *tree) leaf(lo, hi int) {
	for _, shot := range t.idx[lo:hi] {
		bits := t.bits[int(shot)*t.nbits:][:t.nbits]
		k, ok := t.outcome[string(bits)]
		if !ok {
			k = len(t.tally)
			t.outcome[string(bits)] = k
			t.tally = append(t.tally, 0)
		}
		t.tally[k]++
	}
}

// counts returns the histogram tallied so far.
func (t *tree) counts() map[string]int {
	counts := make(map[string]int, len(t.outcome))
	for key, k := range t.outcome {
		counts[key] = t.tally[k]
	}
	return counts
}
