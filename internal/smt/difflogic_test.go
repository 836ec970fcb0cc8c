package smt

import (
	"math"
	"math/rand"
	"testing"
)

// TestDiffLogicAssertAndPotentials: asserted edges hold under the potential
// function, and the model values (potentials relative to the zero node)
// satisfy every constraint.
func TestDiffLogicAssertAndPotentials(t *testing.T) {
	d := newDiffLogic()
	// x - y <= -10 (edge y -> x), y - z <= -10, x >= 0 (edge x -> 0, w 0).
	x, y, z := dlNode(0), dlNode(1), dlNode(2)
	if c := d.assert(y, x, -10, 2); c != nil {
		t.Fatalf("unexpected conflict: %v", c)
	}
	if c := d.assert(z, y, -10, 4); c != nil {
		t.Fatalf("unexpected conflict: %v", c)
	}
	if c := d.assert(x, 0, 0, 6); c != nil {
		t.Fatalf("unexpected conflict: %v", c)
	}
	if msg := d.validate(); msg != "" {
		t.Fatalf("potentials violate an edge: %s", msg)
	}
	vx, vy, vz := d.potential(x), d.potential(y), d.potential(z)
	if vx-vy > -10+1e-9 || vy-vz > -10+1e-9 || vx < -1e-9 {
		t.Fatalf("model x=%v y=%v z=%v violates constraints", vx, vy, vz)
	}
}

// TestDiffLogicNegativeCycle: a contradictory chain produces a conflict whose
// literals are exactly the edges of the negative cycle.
func TestDiffLogicNegativeCycle(t *testing.T) {
	d := newDiffLogic()
	x, y, z := dlNode(0), dlNode(1), dlNode(2)
	// x >= 0, y >= x+10, z >= y+10, z <= 15: infeasible.
	if c := d.assert(x, 0, 0, 10); c != nil { // 0 - x <= 0
		t.Fatalf("conflict on x>=0: %v", c)
	}
	if c := d.assert(y, x, -10, 12); c != nil { // x - y <= -10
		t.Fatalf("conflict on y>=x+10: %v", c)
	}
	if c := d.assert(z, y, -10, 14); c != nil { // y - z <= -10
		t.Fatalf("conflict on z>=y+10: %v", c)
	}
	conflict := d.assert(0, z, 15, 16) // z - 0 <= 15
	if conflict == nil {
		t.Fatal("expected a negative-cycle conflict")
	}
	want := map[int]bool{10: true, 12: true, 14: true, 16: true}
	if len(conflict) != len(want) {
		t.Fatalf("conflict %v, want the 4 cycle literals", conflict)
	}
	for _, l := range conflict {
		if !want[l] {
			t.Fatalf("conflict cites unexpected literal %d (%v)", l, conflict)
		}
	}
	// The failed assert must leave the engine consistent: potentials valid,
	// edge not recorded.
	if msg := d.validate(); msg != "" {
		t.Fatalf("engine left inconsistent after conflict: %s", msg)
	}
	if len(d.edges) != 3 {
		t.Fatalf("conflicting edge was recorded: %d edges", len(d.edges))
	}
}

// TestDiffLogicBacktracking: push/pop levels retract edges in LIFO order and
// keep the potential function a valid certificate for the surviving set.
func TestDiffLogicBacktracking(t *testing.T) {
	d := newDiffLogic()
	x, y := dlNode(0), dlNode(1)
	if c := d.assert(x, 0, 0, 2); c != nil { // x >= 0
		t.Fatalf("level-0 assert: %v", c)
	}
	if c := d.assert(0, x, 100, 4); c != nil { // x <= 100
		t.Fatalf("level-0 assert: %v", c)
	}

	d.pushLevel()
	if c := d.assert(y, x, -30, 6); c != nil { // y >= x+30
		t.Fatalf("level-1 assert: %v", c)
	}
	if got := len(d.edges); got != 3 {
		t.Fatalf("edges = %d, want 3", got)
	}

	d.pushLevel()
	// x >= 80 and y <= 50 contradicts y >= x+30 (80+30 > 50).
	if c := d.assert(x, 0, -80, 8); c != nil {
		t.Fatalf("x>=80 alone should be fine: %v", c)
	}
	if c := d.assert(0, y, 50, 10); c == nil {
		t.Fatal("expected conflict: x>=80, y>=x+30, y<=50")
	}
	if msg := d.validate(); msg != "" {
		t.Fatalf("invalid potentials after conflict: %s", msg)
	}

	// Pop the contradicting level (x >= 80 goes away); the level-1 edge
	// y >= x+30 must survive.
	d.popLevels(1)
	if got := len(d.edges); got != 3 {
		t.Fatalf("after pop: edges = %d, want 3", got)
	}
	if msg := d.validate(); msg != "" {
		t.Fatalf("invalid potentials after pop: %s", msg)
	}
	// y <= 50 is consistent once x >= 80 is gone.
	d.pushLevel()
	if c := d.assert(0, y, 50, 10); c != nil {
		t.Fatalf("y<=50 after popping x>=80: %v", c)
	}
	if msg := d.validate(); msg != "" {
		t.Fatalf("invalid potentials: %s", msg)
	}
	// Model check: y - x >= 30, y <= 50, x >= 0 all hold.
	vx, vy := d.potential(x), d.potential(y)
	if vy-vx < 30-1e-9 || vy > 50+1e-9 || vx < -1e-9 {
		t.Fatalf("model x=%v y=%v violates active constraints", vx, vy)
	}
}

// TestDiffLogicRandomAgainstBellmanFord cross-checks incremental assertion
// with interleaved push/pop against from-scratch Bellman-Ford ground truth
// on the active edge set.
func TestDiffLogicRandomAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type edge struct {
		from, to int32
		w        float64
	}
	trials := 200
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		d := newDiffLogic()
		const n = 5         // nodes 0..4 (0 is the zero node)
		var active [][]edge // per level
		active = append(active, nil)
		feasible := func() bool {
			// Bellman-Ford over the active multigraph.
			dist := make([]float64, n)
			var es []edge
			for _, lv := range active {
				es = append(es, lv...)
			}
			for i := 0; i < n; i++ {
				for _, e := range es {
					if dist[e.from]+e.w < dist[e.to] {
						dist[e.to] = dist[e.from] + e.w
					}
				}
			}
			for _, e := range es {
				if dist[e.from]+e.w < dist[e.to]-1e-9 {
					return false
				}
			}
			return true
		}
		dead := false
		for op := 0; op < 40 && !dead; op++ {
			switch r := rng.Intn(10); {
			case r < 6: // assert a random edge
				from, to := int32(rng.Intn(n)), int32(rng.Intn(n))
				if from == to {
					continue
				}
				w := float64(rng.Intn(13) - 5)
				lit := 2 * (op + 100*trial)
				conflict := d.assert(from, to, w, lit)
				active[len(active)-1] = append(active[len(active)-1], edge{from, to, w})
				ok := feasible()
				if (conflict == nil) != ok {
					t.Fatalf("trial %d op %d: engine says conflict=%v, Bellman-Ford says feasible=%v",
						trial, op, conflict != nil, ok)
				}
				if conflict != nil {
					// Engine rejected the edge: remove it from the model of
					// the active set, like the SAT core backtracking would.
					lv := active[len(active)-1]
					active[len(active)-1] = lv[:len(lv)-1]
				}
				if msg := d.validate(); msg != "" {
					t.Fatalf("trial %d op %d: invalid potentials: %s", trial, op, msg)
				}
			case r < 8: // push
				d.pushLevel()
				active = append(active, nil)
			default: // pop
				if len(active) > 1 {
					d.popLevels(1)
					active = active[:len(active)-1]
				}
			}
		}
	}
}

// TestDiffLogicPotentialDriftBounded: repeated assert/retract cycles keep
// potentials finite (they only ever decrease monotonically within a branch,
// and stay valid across pops).
func TestDiffLogicPotentialDriftBounded(t *testing.T) {
	d := newDiffLogic()
	x, y := dlNode(0), dlNode(1)
	if c := d.assert(x, 0, 0, 2); c != nil {
		t.Fatal(c)
	}
	for i := 0; i < 1000; i++ {
		d.pushLevel()
		if c := d.assert(y, x, -5, 4); c != nil { // y >= x+5
			t.Fatalf("iter %d: %v", i, c)
		}
		d.popLevels(1)
	}
	if math.IsInf(d.potential(x), 0) || math.IsNaN(d.potential(y)) {
		t.Fatal("potentials diverged")
	}
	if msg := d.validate(); msg != "" {
		t.Fatalf("invalid potentials: %s", msg)
	}
}

// TestDiffLogicZeroCycleRoundingTerminates: a cycle whose exact weight is
// zero can still look negative in float64, each lap of the relaxation
// rounding its potentials down by an ulp. Lowering a node on such a cycle
// must neither loop nor report a conflict: the engine gives the edge up as
// a rounding artifact (the simplex keeps it) and its potentials stay valid.
func TestDiffLogicZeroCycleRoundingTerminates(t *testing.T) {
	// Weights found by search: their exact sum is 0, but the float sums
	// keep decreasing lap after lap from the start potential below.
	ws := []float64{-152.7780608566187, 768.1291330717916, -671.0231518669374, -645.127129016468, 700.7992086682325}
	sum := ratOf(0)
	for _, w := range ws {
		sum.Add(sum, ratOf(w))
	}
	if sum.Sign() != 0 {
		t.Fatalf("cycle weight %s, want exactly 0", sum.RatString())
	}
	d := newDiffLogic()
	for i, w := range ws {
		from, to := dlNode(Var(i)), dlNode(Var((i+1)%len(ws)))
		if c := d.assert(from, to, w, 2*i); c != nil {
			t.Fatalf("zero-weight cycle edge %d: false conflict %v", i, c)
		}
	}
	// x0 - zero <= -230602.67436398618 lowers node x0 into the drift.
	if c := d.assert(0, dlNode(0), -230602.67436398618, 100); c != nil {
		t.Fatalf("false conflict %v", c)
	}
	if msg := d.validate(); msg != "" {
		t.Fatalf("potentials violate an edge: %s", msg)
	}
	if d.rounded == 0 {
		t.Fatal("scenario no longer drifts (adjust constants)")
	}
}
