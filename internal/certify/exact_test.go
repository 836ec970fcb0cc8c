package certify_test

import (
	"fmt"
	"math"
	"math/big"
	"testing"
	"time"

	"xtalk/internal/certify"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/workloads"
)

// perTermCost is the reference the certifier's exact cost must equal: the
// Eq. 17 objective accumulated one big.Rat.Add per term, with every
// lifetime ratio reduced on its own.
func perTermCost(s *core.Schedule, nm *certify.NoiseModel, omega float64) *big.Rat {
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	finish := func(id int) float64 { return s.Start[id] + s.Duration[id] }
	overlaps := func(a, b int) bool {
		return s.Start[a] < finish(b)-1e-9 && s.Start[b] < finish(a)-1e-9
	}
	edge := func(id int) device.Edge {
		g := s.Circ.Gates[id]
		return device.NewEdge(g.Qubits[0], g.Qubits[1])
	}
	var two []int
	for _, g := range s.Circ.Gates {
		if g.Kind.IsTwoQubit() {
			two = append(two, g.ID)
		}
	}
	gateCost := new(big.Rat)
	for _, id := range two {
		eps := nm.Independent[edge(id)]
		for _, other := range two {
			if other == id || !overlaps(id, other) {
				continue
			}
			if cond, ok := nm.Conditional[edge(id)][edge(other)]; ok && cond > eps {
				eps = cond
			}
		}
		if eps >= 1 {
			eps = 0.999999
		}
		if eps < 0 {
			eps = 0
		}
		gateCost.Add(gateCost, rat(-math.Log(1-eps)))
	}
	first := make([]float64, s.Circ.NQubits)
	last := make([]float64, s.Circ.NQubits)
	for q := range first {
		first[q], last[q] = math.Inf(1), math.Inf(-1)
	}
	for _, g := range s.Circ.Gates {
		if g.Kind == circuit.KindBarrier {
			continue
		}
		for _, q := range g.Qubits {
			first[q] = math.Min(first[q], s.Start[g.ID])
			last[q] = math.Max(last[q], finish(g.ID))
		}
	}
	decoCost := new(big.Rat)
	for q := range first {
		first, last := first[q], last[q]
		if math.IsInf(first, 1) || last-first <= 0 {
			continue
		}
		coh := nm.Coherence[q]
		if coh <= 0 {
			coh = 1
		}
		lt := new(big.Rat).Sub(rat(last), rat(first))
		decoCost.Add(decoCost, lt.Quo(lt, rat(coh)))
	}
	cost := new(big.Rat).Mul(rat(omega), gateCost)
	return cost.Add(cost, new(big.Rat).Mul(new(big.Rat).Sub(rat(1), rat(omega)), decoCost))
}

// TestCostExactAgainstPerTermSum: Check sums the lifetime ratios over one
// running common denominator and reduces once; the result must be the very
// rational the per-term sum gives, not merely close to it. Cases: the
// paper's SWAP, QAOA and Hidden Shift circuits on the three IBMQ devices
// and cold_compile's supremacy shapes, each scheduled by four engines.
func TestCostExactAgainstPerTermSum(t *testing.T) {
	type instance struct {
		name string
		dev  *device.Device
		c    *circuit.Circuit
	}
	var cases []instance
	for _, sys := range []device.SystemName{device.Poughkeepsie, device.Johannesburg, device.Boeblingen} {
		dev := device.MustNew(sys, 1)
		for _, p := range workloads.SwapBenchmarkPairs[sys] {
			c, err := workloads.SwapCircuit(dev.Topo, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, instance{fmt.Sprintf("%s/swap%d-%d", sys, p[0], p[1]), dev, c.DecomposeSwaps()})
		}
		chain, err := workloads.CrosstalkProneChain(dev, 3)
		if err != nil {
			t.Fatal(err)
		}
		qaoa, err := workloads.QAOACircuit(dev.Topo, chain, 1)
		if err != nil {
			t.Fatal(err)
		}
		hs, _, err := workloads.HiddenShiftCircuit(dev.Topo, chain, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("%s/qaoa", sys), dev, qaoa},
			instance{fmt.Sprintf("%s/hiddenshift", sys), dev, hs})
	}
	for _, sh := range []struct {
		spec          string
		qubits, gates int
	}{
		{"linear:12", 12, 50},
		{"heavyhex:27", 27, 100},
		{"grid:5x8", 40, 140},
		{"heavyhex:65", 65, 200},
		{"heavyhex:127", 127, 300},
	} {
		dev := device.MustNewFromSpec(sh.spec, 1)
		c, err := workloads.SupremacyCircuit(dev.Topo, sh.qubits, sh.gates, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{sh.spec + "/supremacy", dev, c})
	}

	const omega = 0.5
	for _, in := range cases {
		nd := core.NoiseDataFromDevice(in.dev, 3)
		nm := certify.NoiseFromDevice(in.dev, 3)
		cfg := core.DefaultXtalkConfig()
		cfg.Omega = omega
		cfg.Timeout = 200 * time.Millisecond
		for _, eng := range []struct {
			name  string
			sched core.Scheduler
		}{
			{"par", core.ParSched{}},
			{"serial", core.SerialSched{}},
			{"xtalk", core.NewXtalkSched(nd, cfg)},
			{"partitioned", core.NewPartitionedXtalkSched(nd, cfg, core.PartitionOpts{})},
		} {
			s, err := eng.sched.Schedule(in.c, in.dev)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, eng.name, err)
			}
			r := certify.Check(s, certify.Config{Omega: omega, CheckCost: true, ClaimedCost: s.Cost(nd, omega)})
			if !r.OK() {
				t.Fatalf("%s %s:\n%s", in.name, eng.name, r)
			}
			if ref := perTermCost(s, nm, omega); r.Cost.Cmp(ref) != 0 {
				t.Fatalf("%s %s: cost %s, per-term sum %s", in.name, eng.name, r.Cost.RatString(), ref.RatString())
			}
		}
	}
}
