package noise

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"xtalk/internal/characterize"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/quant"
	"xtalk/internal/rb"
	"xtalk/internal/workloads"
)

func noiselessOpts(shots int) Options {
	return Options{
		Shots:                shots,
		Seed:                 1,
		DisableGateErrors:    true,
		DisableDecoherence:   true,
		DisableReadoutErrors: true,
	}
}

func bellCircuit() *circuit.Circuit {
	c := circuit.New(20)
	c.H(0)
	c.CNOT(0, 1)
	c.Measure(0)
	c.Measure(1)
	return c
}

func TestNoiselessBell(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	s, err := core.ParSched{}.Schedule(bellCircuit(), dev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor(dev).Run(s, noiselessOpts(2000))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Probabilities()
	if p["01"] > 0 || p["10"] > 0 {
		t.Fatalf("noiseless Bell produced odd-parity outcomes: %v", p)
	}
	if math.Abs(p["00"]-0.5) > 0.05 {
		t.Fatalf("P(00) = %v, want ~0.5", p["00"])
	}
}

func TestReadoutErrorsPerturbOutcomes(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	c := circuit.New(20)
	c.X(0)
	c.Measure(0)
	s, err := core.ParSched{}.Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	opts := noiselessOpts(4000)
	opts.DisableReadoutErrors = false
	res, err := NewExecutor(dev).Run(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Probabilities()
	want := dev.Cal.Qubits[0].ReadoutError
	if math.Abs(p["0"]-want) > 0.03 {
		t.Fatalf("readout flip rate %v, want ~%v", p["0"], want)
	}
}

func TestGateErrorsDegradeWithRate(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	// Long CNOT chain on one edge amplifies gate error visibility.
	c := circuit.New(20)
	for i := 0; i < 20; i++ {
		c.CNOT(0, 1)
	}
	c.Measure(0)
	c.Measure(1)
	s, err := core.ParSched{}.Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Shots: 3000, Seed: 5, DisableDecoherence: true, DisableReadoutErrors: true}
	res, err := NewExecutor(dev).Run(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	pErr := 1 - res.Probabilities()["00"]
	// 20 CNOTs at the edge's error rate: failure probability at least one
	// error ~ 1-(1-e)^20; allow wide tolerance but require visible error.
	e := dev.Cal.IndependentError(device.NewEdge(0, 1))
	atLeast := (1 - math.Pow(1-e, 20)) * 0.3
	if pErr < atLeast {
		t.Fatalf("gate-error run too clean: observed error %v, expected > %v", pErr, atLeast)
	}
	// And the noiseless control is clean.
	res0, _ := NewExecutor(dev).Run(s, noiselessOpts(1000))
	if res0.Probabilities()["00"] < 0.999 {
		t.Fatal("noiseless control not clean")
	}
}

func TestDecoherenceGrowsWithIdleTime(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	// Excite qubit 10 (worst coherence), idle, measure. Compare short vs
	// long idle via two schedules built by stretching with dummy gates on
	// another qubit and a barrier.
	build := func(idleGates int) *core.Schedule {
		c := circuit.New(20)
		c.X(10)
		c.Barrier(10, 0)
		for i := 0; i < idleGates; i++ {
			c.CNOT(0, 1)
		}
		c.Barrier(10, 0)
		c.Measure(10)
		s, err := core.SerialSched{}.Schedule(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	opts := Options{Shots: 3000, Seed: 7, DisableGateErrors: true, DisableReadoutErrors: true}
	short, err := NewExecutor(dev).Run(build(0), opts)
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewExecutor(dev).Run(build(12), opts)
	if err != nil {
		t.Fatal(err)
	}
	pShort := short.Probabilities()["1"]
	pLong := long.Probabilities()["1"]
	if pLong >= pShort-0.02 {
		t.Fatalf("idling should decay |1>: short %v, long %v", pShort, pLong)
	}
}

func TestCrosstalkOverlapIncreasesError(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	nd := core.NoiseDataFromDevice(dev, 3)
	// Repeated parallel CNOTs on the ground-truth crosstalk pair
	// (5-10, 11-12): ParSched overlaps them, SerialSched doesn't.
	c := circuit.New(20)
	for i := 0; i < 6; i++ {
		c.CNOT(5, 10)
		c.CNOT(11, 12)
	}
	c.Measure(5)
	c.Measure(10)
	c.Measure(11)
	c.Measure(12)
	par, err := core.ParSched{}.Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := core.SerialSched{}.Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	if par.CrosstalkOverlapCount(nd) == 0 {
		t.Fatal("ParSched should overlap the crosstalk pair")
	}
	opts := Options{Shots: 4000, Seed: 11, DisableDecoherence: true, DisableReadoutErrors: true}
	ex := NewExecutor(dev)
	resPar, err := ex.Run(par, opts)
	if err != nil {
		t.Fatal(err)
	}
	resSer, err := ex.Run(ser, opts)
	if err != nil {
		t.Fatal(err)
	}
	errPar := 1 - resPar.Probabilities()["0000"]
	errSer := 1 - resSer.Probabilities()["0000"]
	if errPar <= errSer {
		t.Fatalf("crosstalk overlap should hurt: par %v vs serial %v", errPar, errSer)
	}
	// With crosstalk disabled, the gap closes.
	opts.DisableCrosstalk = true
	resPar2, _ := ex.Run(par, opts)
	errPar2 := 1 - resPar2.Probabilities()["0000"]
	if errPar2 > errSer+0.05 {
		t.Fatalf("crosstalk-free parallel error %v should match serial %v", errPar2, errSer)
	}
}

func TestIdealProbabilitiesBell(t *testing.T) {
	p, measured := IdealProbabilities(bellCircuit())
	if len(measured) != 2 {
		t.Fatalf("measured %v", measured)
	}
	if math.Abs(p["00"]-0.5) > 1e-9 || math.Abs(p["11"]-0.5) > 1e-9 {
		t.Fatalf("ideal Bell distribution %v", p)
	}
}

func TestRunRejectsInvalidSchedule(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	c := bellCircuit()
	s, err := core.ParSched{}.Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	s.Start[1] = -500 // corrupt
	if _, err := NewExecutor(dev).Run(s, noiselessOpts(10)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestResultCountsSumToShots(t *testing.T) {
	dev := device.MustNew(device.Johannesburg, 2)
	c := circuit.New(20)
	c.H(0)
	c.H(1)
	c.Measure(0)
	c.Measure(1)
	s, err := core.ParSched{}.Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor(dev).Run(s, Options{Shots: 777, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range res.Counts {
		total += v
	}
	if total != 777 {
		t.Fatalf("counts sum %d, want 777", total)
	}
}

// TestRunAllocsGrowOnlyWithOutcomes: the shot loop runs over a prebuilt
// step table with a reused bits buffer, so only a new outcome (its key and
// the histogram's growth) allocates. The bound holds only with the tree
// pool intact, which the race detector does not keep: a -race build runs
// the executor but skips the assertion, and CI enforces the bound in the
// non-race alloc-gate step.
func TestRunAllocsGrowOnlyWithOutcomes(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	c, err := workloads.SwapCircuit(dev.Topo, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ParSched{}.Schedule(c, dev)
	if err != nil {
		t.Fatal(err)
	}
	run := func(shots int) (allocs float64, outcomes int) {
		opts := Options{Shots: shots, Seed: 3}
		allocs = testing.AllocsPerRun(5, func() {
			res, err := NewExecutor(dev).Run(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			outcomes = len(res.Counts)
		})
		return allocs, outcomes
	}
	a8, n8 := run(8)
	a64, n64 := run(64)
	if raceEnabled {
		t.Skipf("allocation counts are not meaningful under -race (%v at 64 shots, %v at 8)", a64, a8)
	}
	if a64-a8 > float64(2*(n64-n8)) {
		t.Fatalf("Executor.Run allocates %v at 64 shots (%d outcomes), %v at 8 (%d outcomes)", a64, n64, a8, n8)
	}
}

// referenceRun is the shot-by-shot executor: every shot runs the whole
// step table on one state, drawing as it goes. Run must return exactly its
// histogram.
func referenceRun(ex *Executor, s *core.Schedule, opts Options) (*Result, error) {
	if opts.Shots <= 0 {
		opts.Shots = 1024
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("noise: invalid schedule: %w", err)
	}
	compact, remap := s.Circ.Compact()
	measured := measuredQubits(s.Circ)
	steps := ex.buildSteps(s, remap, measured, opts)
	rng := rand.New(rand.NewSource(opts.Seed))
	counts := map[string]int{}
	state := quant.NewState(compact.NQubits)
	// Every shot writes the same measurement slots, so the buffer needs no
	// reset between shots.
	bits := make([]byte, len(measured))
	for shot := 0; shot < opts.Shots; shot++ {
		state.Reset()
		for i := range steps {
			switch st := &steps[i]; st.kind {
			case opKraus:
				state.ApplyKraus(st.ks, st.q0, rng)
			case opMeasure:
				out := state.MeasureQubit(st.q0, rng)
				if st.readout && rng.Float64() < st.p {
					out ^= 1
				}
				bits[st.slot] = byte('0' + out)
			case opPauli:
				if rng.Float64() < st.p {
					p0, p1 := quant.RandomPauliPair(rng)
					state.ApplyPauliPair(p0, p1, st.q0, st.q1)
				}
			default:
				st.apply(state)
			}
		}
		counts[string(bits)]++
	}
	return &Result{Counts: counts, MeasuredQubits: measured, Shots: opts.Shots}, nil
}

// measuredNoise is what the scheduler sees in the paper's daily loop: a
// high-crosstalk-only SRB refresh of the device's high-crosstalk pairs.
func measuredNoise(t *testing.T, dev *device.Device) *core.NoiseData {
	t.Helper()
	cfg := rb.Config{Lengths: []int{1, 2, 4, 8, 16}, Sequences: 6, Shots: 64, Seed: 1000}
	rep, err := characterize.Run(dev, characterize.HighCrosstalkOnly, dev.Cal.HighCrosstalkPairs(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep.NoiseData(dev, 3)
}

// TestRunMatchesReference: the trajectory tree returns byte-identical
// counts to the shot-by-shot oracle on the paper SWAP circuits under
// ParSched and XtalkSched (on measured noise), QAOA and Hidden Shift
// circuits, every Disable option alone, and shot counts on both sides of
// the chunk size. A circuit cannot measure a qubit twice or act on it after
// its measurement (core.ValidateMeasures), so no case does.
func TestRunMatchesReference(t *testing.T) {
	type run struct {
		name string
		dev  *device.Device
		s    *core.Schedule
		opts Options
	}
	var runs []run
	schedule := func(sch core.Scheduler, c *circuit.Circuit, dev *device.Device) *core.Schedule {
		t.Helper()
		s, err := sch.Schedule(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i, name := range []device.SystemName{device.Poughkeepsie, device.Johannesburg, device.Boeblingen} {
		dev, err := device.NewForDay(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		xtalk := core.NewXtalkSched(measuredNoise(t, dev), core.DefaultXtalkConfig())
		for k, p := range workloads.SwapBenchmarkPairs[name] {
			c, err := workloads.SwapCircuit(dev.Topo, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			seed := int64(10*i + k)
			for _, sch := range []core.Scheduler{core.ParSched{}, xtalk} {
				runs = append(runs, run{fmt.Sprintf("%s/swap%d-%d/%T", name, p[0], p[1], sch),
					dev, schedule(sch, c, dev), Options{Shots: 2048, Seed: seed}})
			}
		}
		chain, err := workloads.CrosstalkProneChain(dev, 3)
		if err != nil {
			t.Fatal(err)
		}
		qaoa, err := workloads.QAOACircuit(dev.Topo, chain, 1)
		if err != nil {
			t.Fatal(err)
		}
		hs, _, err := workloads.HiddenShiftCircuit(dev.Topo, chain, 0b1011, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			name string
			c    *circuit.Circuit
		}{{"qaoa", qaoa}, {"hs", hs}} {
			c := w.c
			for _, sch := range []core.Scheduler{core.ParSched{}, xtalk} {
				s := schedule(sch, c, dev)
				for _, shots := range []int{1, 7, 2048, chunkShots + 1} {
					runs = append(runs, run{fmt.Sprintf("%s/%s/%T/shots%d", name, w.name, sch, shots),
						dev, s, Options{Shots: shots, Seed: int64(shots)}})
				}
				for d, set := range []func(*Options){
					func(o *Options) { o.DisableGateErrors = true },
					func(o *Options) { o.DisableDecoherence = true },
					func(o *Options) { o.DisableReadoutErrors = true },
					func(o *Options) { o.DisableCrosstalk = true },
				} {
					opts := Options{Shots: 512, Seed: 3}
					set(&opts)
					runs = append(runs, run{fmt.Sprintf("%s/%s/%T/disable%d", name, w.name, sch, d), dev, s, opts})
				}
			}
		}
	}

	for _, r := range runs {
		ex := NewExecutor(r.dev)
		got, err := ex.Run(r.s, r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		want, err := referenceRun(ex, r.s, r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !maps.Equal(got.Counts, want.Counts) {
			t.Fatalf("%s: counts %v, reference %v", r.name, got.Counts, want.Counts)
		}
	}
}

// TestRunConcurrentPooledTrees: runs on several goroutines at once share
// treePool, and trees go back to it sized for other circuits and shot
// counts; every run must still return the histogram it returns alone.
func TestRunConcurrentPooledTrees(t *testing.T) {
	dev := device.MustNew(device.Poughkeepsie, 1)
	type run struct {
		s    *core.Schedule
		opts Options
	}
	var runs []run
	for k, p := range workloads.SwapBenchmarkPairs[device.Poughkeepsie][:3] {
		c, err := workloads.SwapCircuit(dev.Topo, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.ParSched{}.Schedule(c, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, shots := range []int{7, 300, chunkShots + 1} {
			runs = append(runs, run{s, Options{Shots: shots, Seed: int64(k*10 + shots)}})
		}
	}
	want := make([]map[string]int, len(runs))
	for i, r := range runs {
		res, err := NewExecutor(dev).Run(r.s, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Counts
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for j := range runs {
				i := (j*(w+1) + w) % len(runs)
				res, err := NewExecutor(dev).Run(runs[i].s, runs[i].opts)
				if err == nil && !maps.Equal(res.Counts, want[i]) {
					err = fmt.Errorf("run %d on worker %d: counts %v, alone %v", i, w, res.Counts, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
