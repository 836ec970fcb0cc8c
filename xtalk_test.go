package xtalk

// End-to-end integration tests of the public facade: the full
// characterize -> schedule -> execute pipeline the README advertises.

import (
	"context"
	"strings"
	"testing"
	"time"

	"xtalk/internal/workloads"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow reproduction; run without -short")
	}
	dev, err := NewDevice(Poughkeepsie, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Characterize(dev, CharOneHopBinPacked)
	if err != nil {
		t.Fatal(err)
	}
	nd := rep.NoiseData(dev, 3)
	if len(nd.Conditional) == 0 {
		t.Fatal("characterization found no crosstalk")
	}

	c := NewCircuit(20)
	for i := 0; i < 4; i++ {
		c.CNOT(5, 10)
		c.CNOT(11, 12)
	}
	for _, q := range []int{5, 10, 11, 12} {
		c.Measure(q)
	}

	par, err := ParScheduler().Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	xs, err := NewXtalkScheduler(nd, 0.5).Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	distPar, err := ExecuteMitigated(dev, par, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	distX, err := ExecuteMitigated(dev, xs, 3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pPar := SuccessProbability(distPar, "0000")
	pX := SuccessProbability(distX, "0000")
	if pX <= pPar {
		t.Fatalf("XtalkSched success %.3f should beat ParSched %.3f on a crosstalk-heavy program", pX, pPar)
	}
}

func TestFacadeRouting(t *testing.T) {
	dev, err := NewDevice(Poughkeepsie, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit(20)
	c.H(0)
	c.CNOT(0, 13) // non-adjacent: requires routing
	c.Measure(0)
	routed, err := Route(c, dev.Topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range routed.Gates {
		if g.Kind.IsTwoQubit() && !dev.Topo.HasEdge(g.Qubits[0], g.Qubits[1]) {
			t.Fatalf("routed gate %s violates topology", g)
		}
	}
}

func TestFacadeParseAndSchedule(t *testing.T) {
	dev, err := NewDevice(Johannesburg, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := `
# a Bell pair on an edge
h q0
cx q0,q1
measure q0
measure q1
`
	c, err := ParseCircuit(src, dev.Topo.NQubits)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SerialScheduler().Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(dev, s, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 500 {
		t.Fatalf("shots %d", res.Shots)
	}
	ideal := IdealDistribution(c)
	if ideal["00"] < 0.49 || ideal["11"] < 0.49 {
		t.Fatalf("ideal Bell distribution %v", ideal)
	}
}

func TestFacadeBarrierInsertion(t *testing.T) {
	dev, err := NewDevice(Poughkeepsie, 1)
	if err != nil {
		t.Fatal(err)
	}
	nd := GroundTruthNoiseData(dev, 3)
	c := NewCircuit(20)
	c.CNOT(5, 10)
	c.CNOT(11, 12)
	c.Measure(10)
	c.Measure(11)
	s, err := NewXtalkScheduler(nd, 1).Schedule(c, dev) // omega=1: serialize crosstalk
	if err != nil {
		t.Fatal(err)
	}
	out := InsertBarriers(s)
	if !strings.Contains(out.String(), "barrier") {
		t.Fatalf("expected a barrier in the serialized output:\n%s", out)
	}
}

// TestPartitionedSchedSmoke is the CI wall-clock gate for the scheduling
// engine: partitioned compiles of device-filling supremacy circuits under
// the standard 2s anytime budget must finish within generous ceilings (they
// take well under a second when the theory tiers are healthy), so
// regressions in the difference-logic or simplex layers fail loudly instead
// of silently eating the budget. heavyhex:127 is the full-device case from
// the paper's evaluation and the headline number the simplex fast path is
// held to.
func TestPartitionedSchedSmoke(t *testing.T) {
	if testing.Short() {
		// The dedicated CI step runs this without -short (and without the
		// race detector, whose overhead would distort the ceiling).
		t.Skip("wall-clock gate runs in its own CI step")
	}
	cases := []struct {
		spec    string
		ceiling time.Duration
	}{
		{"heavyhex:27", 60 * time.Second},
		{"heavyhex:127", 120 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			p, err := NewPipelineFromSpec(tc.spec, 1, 0, PipelineConfig{
				Partition: true,
				Budget:    2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			c, err := workloads.SupremacyCircuit(p.Dev.Topo, p.Dev.Topo.NQubits, 3*p.Dev.Topo.NQubits, 1)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res := p.Compile(context.Background(), CompileRequest{Tag: "smoke", Circuit: c})
			elapsed := time.Since(start)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.Schedule.Stats.Windows < 2 {
				t.Fatalf("expected a multi-window partitioned solve, got %d windows", res.Schedule.Stats.Windows)
			}
			if elapsed > tc.ceiling {
				t.Fatalf("partitioned %s compile took %v, ceiling %v — theory-layer regression", tc.spec, elapsed, tc.ceiling)
			}
			t.Logf("partitioned %s compile: %v (%s)", tc.spec, elapsed, res.Schedule.Stats)
		})
	}
}

// TestFacadeSpecPipelineOnGeneratedDevice compiles and executes a QAOA
// circuit end-to-end (schedule -> barriers -> execute -> mitigate) on a
// non-preset, generator-backed topology built entirely from a device spec.
func TestFacadeSpecPipelineOnGeneratedDevice(t *testing.T) {
	p, err := NewPipelineFromSpec("grid:5x8", 1, 0, PipelineConfig{
		Shots:    256,
		Mitigate: true,
		Budget:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dev.Topo.NQubits != 40 {
		t.Fatalf("grid:5x8 has %d qubits, want 40", p.Dev.Topo.NQubits)
	}
	c, chain, err := workloads.QAOAChainCircuit(p.Dev.Topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 4 {
		t.Fatalf("chain %v", chain)
	}
	res := p.Compile(context.Background(), CompileRequest{Tag: "qaoa", Circuit: c, Seed: 3})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Schedule == nil || res.Barriered == nil {
		t.Fatal("pipeline did not produce a schedule + barriered circuit")
	}
	var total float64
	for _, v := range res.Dist {
		total += v
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("mitigated distribution mass %v", total)
	}
}

// TestFacadeSpecErrors checks the spec grammar is enforced uniformly.
func TestFacadeSpecErrors(t *testing.T) {
	if _, err := NewDeviceFromSpec("torus:4x4", 1); err == nil {
		t.Fatal("bad spec should fail")
	}
	if _, err := NewPipelineFromSpec("grid:0x4", 1, 0, PipelineConfig{}); err == nil {
		t.Fatal("bad spec should fail pipeline construction")
	}
	if _, err := ParseTopology("heavyhex:65"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDayDrift(t *testing.T) {
	d0, err := NewDeviceForDay(Boeblingen, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := NewDeviceForDay(Boeblingen, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for e, gc := range d0.Cal.Gates {
		if d3.Cal.Gates[e].Error != gc.Error {
			same = false
		}
	}
	if same {
		t.Fatal("calibration should drift across days")
	}
}
