package xtalk

// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for the
// paper-vs-measured record). Each benchmark regenerates its figure's data at
// reduced shot counts; run `go run ./cmd/xtalkexp -exp all` for full-size
// reproductions.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"xtalk/internal/certify"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/experiments"
	"xtalk/internal/rb"
	"xtalk/internal/workloads"
)

func init() {
	// Keep per-schedule SMT budgets small during benchmarking so the
	// heavyweight figure benches (QAOA / Hidden Shift omega sweeps) finish
	// in one iteration each.
	experiments.SchedulerBudget = 2 * time.Second
}

func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Shots: 256, Threshold: 3}
}

func benchRB() rb.Config {
	return rb.Config{Lengths: []int{1, 6, 14, 26}, Sequences: 4, Shots: 48, Seed: 1}
}

// BenchmarkFig3Characterization regenerates the crosstalk maps (Figure 3):
// SRB over 1-hop pairs plus a long-range sample on one device per iteration.
func BenchmarkFig3Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(device.Johannesburg, benchOpts(), benchRB())
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllHighAtOneHop {
			b.Fatal("long-range crosstalk detected")
		}
	}
}

// BenchmarkFig4DailyVariation regenerates the daily drift series (Figure 4).
func BenchmarkFig4DailyVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(benchOpts(), benchRB(), 3)
		if err != nil {
			b.Fatal(err)
		}
		if !res.PairSetStable {
			b.Fatal("pair set drifted")
		}
	}
}

// BenchmarkFig5SwapErrorRates regenerates the SWAP-circuit error comparison
// (Figures 5a-5c) on Johannesburg (the smallest benchmark set).
func BenchmarkFig5SwapErrorRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(context.Background(), device.Johannesburg, 0.5, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if res.GeomeanImprovement < 1 {
			b.Fatalf("XtalkSched lost to ParSched: %v", res.GeomeanImprovement)
		}
	}
}

// BenchmarkFig5dDurations regenerates the program-duration comparison
// (Figure 5d): pure scheduling, no simulation.
func BenchmarkFig5dDurations(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	cfg := core.DefaultXtalkConfig()
	pairs := workloads.SwapBenchmarkPairs[device.Poughkeepsie]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pair := range pairs {
			c, err := workloads.SwapCircuit(dev.Topo, pair[0], pair[1])
			if err != nil {
				b.Fatal(err)
			}
			for _, sched := range []core.Scheduler{core.SerialSched{}, core.ParSched{}, core.NewXtalkSched(nd, cfg)} {
				if _, err := sched.Schedule(c, dev); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig6ExampleSchedules regenerates the Figure 6 schedule renders.
func BenchmarkFig6ExampleSchedules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Optimality regenerates the near-optimality comparison
// (Figure 7).
func BenchmarkFig7Optimality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8QAOA regenerates the QAOA cross-entropy omega sweep
// (Figure 8).
func BenchmarkFig8QAOA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(context.Background(), benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9HiddenShift regenerates the Hidden Shift omega-sensitivity
// study (Figure 9, redundant-CNOT variant).
func BenchmarkFig9HiddenShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(context.Background(), true, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10CharacterizationCost regenerates the characterization cost
// table (Figure 10): planning only, no RB simulation.
func BenchmarkFig10CharacterizationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 12 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkScalability regenerates the Section 9.4 compile-time scaling
// study (the smallest instance per iteration; the full sweep runs via
// `xtalkexp -exp scalability`).
func BenchmarkScalability(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	c, err := workloads.SupremacyCircuit(dev.Topo, 6, 100, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultXtalkConfig()
	cfg.CompactErrorEncoding = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewXtalkSched(nd, cfg).Schedule(c, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMaxVsCompactEncoding compares the paper-faithful powerset
// error encoding (Eq. 7-8) against the linear compact encoding on the same
// circuit (a DESIGN.md ablation).
func BenchmarkAblationMaxVsCompactEncoding(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	c, err := workloads.SwapCircuit(dev.Topo, 0, 13)
	if err != nil {
		b.Fatal(err)
	}
	for _, compact := range []bool{false, true} {
		name := "powerset"
		if compact {
			name = "compact"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultXtalkConfig()
			cfg.CompactErrorEncoding = compact
			for i := 0; i < b.N; i++ {
				if _, err := core.NewXtalkSched(nd, cfg).Schedule(c, dev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMaxVsSumComposition compares the paper's max rule for
// conditional-error composition (Eq. 6) against additive composition (a
// DESIGN.md ablation).
func BenchmarkAblationMaxVsSumComposition(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	c, err := workloads.SwapCircuit(dev.Topo, 0, 13)
	if err != nil {
		b.Fatal(err)
	}
	for _, sum := range []bool{false, true} {
		name := "max-rule"
		if sum {
			name = "sum-rule"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultXtalkConfig()
			cfg.SumErrorComposition = sum
			for i := 0; i < b.N; i++ {
				if _, err := core.NewXtalkSched(nd, cfg).Schedule(c, dev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAlignmentConstraints measures the cost of the IBMQ
// no-partial-overlap constraints (Eq. 11-13) on solve time.
func BenchmarkAblationAlignmentConstraints(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	c, err := workloads.SwapCircuit(dev.Topo, 0, 13)
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := "aligned"
		if disable {
			name = "unconstrained"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultXtalkConfig()
			cfg.DisableAlignment = disable
			for i := 0; i < b.N; i++ {
				if _, err := core.NewXtalkSched(nd, cfg).Schedule(c, dev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHeuristicVsExact compares the greedy heuristic scheduler
// against the exact SMT scheduler.
func BenchmarkAblationHeuristicVsExact(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	c, err := workloads.SwapCircuit(dev.Topo, 0, 13)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("heuristic", func(b *testing.B) {
		h := &core.HeuristicXtalkSched{Noise: nd, Omega: 0.5}
		for i := 0; i < b.N; i++ {
			if _, err := h.Schedule(c, dev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("smt", func(b *testing.B) {
		x := core.NewXtalkSched(nd, core.DefaultXtalkConfig())
		for i := 0; i < b.N; i++ {
			if _, err := x.Schedule(c, dev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedulerDeviceSizes tracks scheduler cost as devices grow: the
// same QAOA-chain and supremacy workloads compiled on 20-qubit (preset),
// 27-qubit (Falcon heavy-hex), 40-qubit (grid) and 65-qubit (Hummingbird
// heavy-hex) devices, so the perf trajectory captures scaling beyond the
// paper's fixed 20 qubits.
func BenchmarkSchedulerDeviceSizes(b *testing.B) {
	for _, spec := range []string{"poughkeepsie", "heavyhex:27", "grid:5x8", "heavyhex:65"} {
		dev := device.MustNewFromSpec(spec, 1)
		nd := core.NoiseDataFromDevice(dev, 3)
		qaoa, _, err := workloads.QAOAChainCircuit(dev.Topo, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		sup, err := workloads.SupremacyCircuit(dev.Topo, dev.Topo.NQubits, 3*dev.Topo.NQubits, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultXtalkConfig()
		cfg.CompactErrorEncoding = true
		cfg.Timeout = 2 * time.Second
		b.Run(fmt.Sprintf("%s/%dq/qaoa", spec, dev.Topo.NQubits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewXtalkSched(nd, cfg).Schedule(qaoa, dev); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/%dq/supremacy", spec, dev.Topo.NQubits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewXtalkSched(nd, cfg).Schedule(sup, dev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedEngine compares the monolithic SMT scheduler against the
// conflict-partitioned engine on device-filling supremacy circuits under
// the same 2-second anytime budget, across device sizes up to the
// 127-qubit Eagle class. Each sub-benchmark also reports simplex_ns/op —
// the CPU time spent inside the exact rational simplex, summed across
// windows (the rest runs on the native-float difference-logic tier). On a
// multi-core machine concurrently solved windows can make this exceed the
// wall-clock ns/op; on the single-core CI container it reads as a share.
// scripts/bench_sched.sh
// wraps this benchmark and emits BENCH_sched.json (ns/op and per-tier
// timing per device size and engine) so successive PRs have a comparable
// scheduler perf trajectory.
func BenchmarkSchedEngine(b *testing.B) {
	for _, spec := range schedEngineSpecs {
		dev, sup, engines := schedEngineShape(b, spec)
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%dq/%s", spec, dev.Topo.NQubits, eng.name), func(b *testing.B) {
				var simplex time.Duration
				var pivots, promotions int64
				for i := 0; i < b.N; i++ {
					s, err := eng.build().Schedule(sup, dev)
					if err != nil {
						b.Fatal(err)
					}
					simplex += s.Stats.SimplexTime
					pivots += s.Stats.Pivots
					promotions += s.Stats.Promotions
				}
				b.ReportMetric(float64(simplex.Nanoseconds())/float64(b.N), "simplex_ns/op")
				b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
				b.ReportMetric(float64(promotions)/float64(b.N), "promotions/op")
			})
		}
	}
}

// schedEngineSpecs are the device shapes BenchmarkSchedEngine and
// TestSchedBudgetContract run: each device filled by a supremacy circuit of
// depth three times its qubit count.
var schedEngineSpecs = []string{"linear:12", "heavyhex:27", "grid:5x8", "heavyhex:65", "heavyhex:127"}

// schedEngineBudget is the anytime budget every engine runs under.
const schedEngineBudget = 2 * time.Second

// schedEngine names a scheduler constructor; each schedule gets a fresh
// engine, so no run inherits another's warm state.
type schedEngine struct {
	name  string
	build func() core.Scheduler
}

// schedEngineShape builds one shape's device, circuit and its two engines:
// the monolithic SMT encoding and the conflict-partitioned one.
func schedEngineShape(tb testing.TB, spec string) (*device.Device, *circuit.Circuit, []schedEngine) {
	tb.Helper()
	dev := device.MustNewFromSpec(spec, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	sup, err := workloads.SupremacyCircuit(dev.Topo, dev.Topo.NQubits, 3*dev.Topo.NQubits, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultXtalkConfig()
	cfg.CompactErrorEncoding = true
	cfg.Timeout = schedEngineBudget
	return dev, sup, []schedEngine{
		{"monolithic", func() core.Scheduler { return core.NewXtalkSched(nd, cfg) }},
		{"partitioned", func() core.Scheduler { return core.NewPartitionedXtalkSched(nd, cfg, core.PartitionOpts{}) }},
	}
}

// TestSchedBudgetContract holds the anytime budget to wall time: every
// BenchmarkSchedEngine shape, on both engines, returns a valid schedule
// within the budget plus 10% — whether it proved optimality or ran out of
// time. Serve's deadline propagation promises clients exactly this.
func TestSchedBudgetContract(t *testing.T) {
	if testing.Short() {
		// Wall-clock gate: runs in its own CI step, without the race
		// detector's overhead.
		t.Skip("wall-clock gate runs in its own CI step")
	}
	limit := schedEngineBudget + schedEngineBudget/10
	for _, spec := range schedEngineSpecs {
		dev, sup, engines := schedEngineShape(t, spec)
		for _, eng := range engines {
			t0 := time.Now()
			s, err := eng.build().Schedule(sup, dev)
			elapsed := time.Since(t0)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, eng.name, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s/%s: invalid schedule: %v", spec, eng.name, err)
			}
			t.Logf("%s/%s: %v (%s)", spec, eng.name, elapsed.Round(time.Millisecond), s.Stats)
			if elapsed > limit {
				t.Errorf("%s/%s took %v, budget %v + 10%%", spec, eng.name, elapsed, schedEngineBudget)
			}
		}
	}
}

// BenchmarkRBExperiment measures one simultaneous-RB measurement, the unit
// of characterization cost, in the figure benchmarks' RB shape and in the
// one perfbench's paper_loop campaigns run.
func BenchmarkRBExperiment(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	gi, gj := device.NewEdge(10, 15), device.NewEdge(11, 12)
	for _, shape := range []struct {
		name string
		cfg  rb.Config
	}{
		{"bench", benchRB()},
		{"paper_loop", rb.Config{Lengths: []int{1, 2, 4, 8, 16}, Sequences: 6, Shots: 64, Seed: 1}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := rb.MeasureSimultaneous(dev, gi, gj, shape.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNoiseExecutor measures Monte-Carlo execution throughput for a
// SWAP circuit, at 64 shots and at paper_loop's 2048.
func BenchmarkNoiseExecutor(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	c, err := workloads.SwapCircuit(dev.Topo, 0, 13)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.ParSched{}.Schedule(c, dev)
	if err != nil {
		b.Fatal(err)
	}
	for _, shots := range []int{64, 2048} {
		b.Run(fmt.Sprintf("shots=%d", shots), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Execute(dev, s, shots, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSMTSchedulerSolve isolates the SMT solve on the Figure 6 circuit.
func BenchmarkSMTSchedulerSolve(b *testing.B) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	c := circuit.New(20)
	c.SWAP(0, 5)
	c.SWAP(13, 12)
	c.SWAP(5, 10)
	c.SWAP(12, 11)
	c.CNOT(10, 11)
	c.Measure(10)
	c.Measure(11)
	dc := c.DecomposeSwaps()
	x := core.NewXtalkSched(nd, core.DefaultXtalkConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Schedule(dc, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCertifyCheck prices the certification pass every compile now
// pays: certify.Check, configured as the schedule stage configures it
// (ground-truth pairs re-derived from the calibration, cost checked), on
// ParSched schedules of cold_compile's heavyhex supremacy shapes.
func BenchmarkCertifyCheck(b *testing.B) {
	for _, sh := range []struct {
		spec          string
		qubits, gates int
	}{{"heavyhex:27", 27, 100}, {"heavyhex:127", 127, 300}} {
		dev := device.MustNewFromSpec(sh.spec, 1)
		c, err := workloads.SupremacyCircuit(dev.Topo, sh.qubits, sh.gates, 1)
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.ParSched{}.Schedule(c, dev)
		if err != nil {
			b.Fatal(err)
		}
		cfg := certify.Config{Omega: 0.5, CheckCost: true, ClaimedCost: s.Cost(core.NoiseDataFromDevice(dev, 3), 0.5)}
		b.Run(sh.spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if rep := certify.Check(s, cfg); !rep.OK() {
					b.Fatal(rep.Err())
				}
			}
		})
	}
}
