package main

import (
	"fmt"
	"math/rand"

	"xtalk/internal/circuit"
	"xtalk/internal/device"
	"xtalk/internal/qasm"
	"xtalk/internal/workloads"
)

// calSeed is the calibration seed every request names. The daemon workloads
// pin it so that the served artifacts, and every quality number computed
// from them, are the same for every run seed.
const calSeed = 1

// paperSystems are the three IBMQ devices of the paper's evaluation.
var paperSystems = []device.SystemName{device.Poughkeepsie, device.Johannesburg, device.Boeblingen}

// instance is one circuit submitted on one device calibration.
type instance struct {
	Name   string
	Spec   string
	Day    int
	Circ   *circuit.Circuit
	Source string // OpenQASM 2.0 sent to the daemon
	// Ideal marks circuits small enough to simulate, whose executed error
	// enters error_gain.
	Ideal bool
}

func newInstance(name, spec string, day int, c *circuit.Circuit, ideal bool) instance {
	return instance{Name: name, Spec: spec, Day: day, Circ: c, Source: qasm.Dump(c), Ideal: ideal}
}

// warmInstances is the warm_serve working set: the paper's SWAP, QAOA and
// Hidden Shift circuits on the three IBMQ devices and a 27-qubit heavy-hex
// device, on two calibration days. The list order is the popularity rank of
// the Zipf replay.
func warmInstances() ([]instance, error) {
	var out []instance
	for day := 0; day < 2; day++ {
		for _, spec := range []string{"poughkeepsie", "johannesburg", "boeblingen", "heavyhex:27"} {
			dev, err := device.NewFromSpecForDay(spec, calSeed, day)
			if err != nil {
				return nil, err
			}
			pairs := workloads.SwapBenchmarkPairs[device.SystemName(spec)]
			if len(pairs) == 0 {
				pairs = farPairs(dev.Topo, 2)
			}
			for _, p := range pairs[:2] {
				c, err := workloads.SwapCircuit(dev.Topo, p[0], p[1])
				if err != nil {
					return nil, err
				}
				out = append(out, newInstance(fmt.Sprintf("swap%d-%d", p[0], p[1]), spec, day, c, true))
			}
			chain, err := workloads.CrosstalkProneChain(dev, 3)
			if err != nil {
				return nil, err
			}
			q, err := workloads.QAOACircuit(dev.Topo, chain, 1)
			if err != nil {
				return nil, err
			}
			out = append(out, newInstance("qaoa", spec, day, q, true))
			hs, _, err := workloads.HiddenShiftCircuit(dev.Topo, chain, 0b1011, false)
			if err != nil {
				return nil, err
			}
			out = append(out, newInstance("hs", spec, day, hs, true))
		}
	}
	return out, nil
}

// farPairs returns n qubit pairs four hops apart, lowest qubits first, as
// SWAP-benchmark endpoints on devices the paper did not evaluate.
func farPairs(topo *device.Topology, n int) [][2]int {
	var out [][2]int
	for a := 0; a < topo.NQubits && len(out) < n; a++ {
		for b := a + 1; b < topo.NQubits; b++ {
			if topo.Distance(a, b) == 4 {
				out = append(out, [2]int{a, b})
				break
			}
		}
	}
	return out
}

// supremacyShapes sizes the seeded supremacy circuits of cold_compile:
// device, qubits used and total gates.
var supremacyShapes = []struct {
	Spec          string
	Qubits, Gates int
}{
	{"linear:12", 12, 50},
	{"heavyhex:27", 27, 100},
	{"grid:5x8", 40, 140},
	{"heavyhex:65", 65, 200},
	{"heavyhex:127", 127, 300},
}

// supremacyPerShape is how many supremacy circuits each shape contributes.
const supremacyPerShape = 2

// coldInstances is the cold_compile list: every paper SWAP circuit on the
// three IBMQ devices, plus supremacy circuits from generator seeds
// 1..supremacyPerShape on each shape, in a fixed interleaved order. The
// list does not depend on the run seed: a daemon's windows draw solver
// workspaces from a shared warm-start pool, so both the effort of a solve
// and how ties between window optima break depend on which solves ran
// before it. A seeded order would make each run's work, and its served
// costs, differ.
func coldInstances() ([]instance, error) {
	var out []instance
	for _, name := range paperSystems {
		topo, err := device.TopologyFor(name)
		if err != nil {
			return nil, err
		}
		for _, p := range workloads.SwapBenchmarkPairs[name] {
			c, err := workloads.SwapCircuit(topo, p[0], p[1])
			if err != nil {
				return nil, err
			}
			out = append(out, newInstance(fmt.Sprintf("swap%d-%d", p[0], p[1]), string(name), 0, c, true))
		}
	}
	for _, sh := range supremacyShapes {
		topo, err := device.ParseSpec(sh.Spec)
		if err != nil {
			return nil, err
		}
		for g := int64(1); g <= supremacyPerShape; g++ {
			c, err := workloads.SupremacyCircuit(topo, sh.Qubits, sh.Gates, g)
			if err != nil {
				return nil, err
			}
			out = append(out, newInstance(fmt.Sprintf("supremacy-s%d", g), sh.Spec, 0, c, false))
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// zipfSequence draws n ranks in [0, k) from Zipf(s) with the run seed.
func zipfSequence(seed int64, s float64, k, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(k-1))
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}
