package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/workloads"
)

func testDev(t *testing.T) *device.Device {
	t.Helper()
	return device.MustNew(device.Poughkeepsie, 1)
}

// crosstalkCircuit builds a small program over two high-crosstalk
// Poughkeepsie edges, with reps controlling its depth.
func crosstalkCircuit(reps int) *circuit.Circuit {
	c := circuit.New(20)
	for i := 0; i < reps; i++ {
		c.CNOT(5, 10)
		c.CNOT(11, 12)
	}
	for _, q := range []int{5, 10, 11, 12} {
		c.Measure(q)
	}
	return c
}

// TestBatchCompilesAndExecutesConcurrently drives the acceptance criterion:
// >= 8 circuits compiled and executed across a concurrent worker pool (run
// under -race in CI), with results in request order and every stage
// populated.
func TestBatchCompilesAndExecutesConcurrently(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{
		Shots:    256,
		Mitigate: true,
		Workers:  8,
		Budget:   5 * time.Second,
	})
	const n = 9
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{
			Tag:     string(rune('a' + i)),
			Circuit: crosstalkCircuit(1 + i%3),
			Seed:    int64(i + 1),
		}
	}
	results := p.Batch(context.Background(), reqs)
	if len(results) != n {
		t.Fatalf("got %d results for %d requests", len(results), n)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Tag != reqs[i].Tag {
			t.Fatalf("result %d tag %q, want %q (order must be preserved)", i, r.Tag, reqs[i].Tag)
		}
		if r.Err != nil {
			t.Fatalf("item %q failed: %v", r.Tag, r.Err)
		}
		if r.Schedule == nil || r.Barriered == nil || r.Raw == nil || r.Dist == nil {
			t.Fatalf("item %q missing artifacts: %+v", r.Tag, r)
		}
		if err := r.Schedule.Validate(); err != nil {
			t.Fatalf("item %q invalid schedule: %v", r.Tag, err)
		}
		if r.Raw.Shots != 256 {
			t.Fatalf("item %q executed %d shots, want 256", r.Tag, r.Raw.Shots)
		}
	}
	stats := p.Stats()
	for _, stage := range []string{"parse", "schedule", "barriers", "execute", "mitigate"} {
		if stats[stage].Runs != n {
			t.Fatalf("stage %q ran %d times, want %d", stage, stats[stage].Runs, n)
		}
		if stats[stage].Errors != 0 {
			t.Fatalf("stage %q recorded %d errors", stage, stats[stage].Errors)
		}
	}
	if s := p.StatsString(); !strings.Contains(s, "schedule") {
		t.Fatalf("StatsString missing schedule stage:\n%s", s)
	}
}

// TestBatchCancellation asserts the other acceptance criterion: canceling
// mid-batch returns promptly (the in-flight SMT search aborts within one
// conflict-check interval) with partial, fail-soft results.
func TestBatchCancellation(t *testing.T) {
	dev := testDev(t)
	// Supremacy-style circuits large enough that exact SMT optimization
	// cannot finish within the test's cancellation window.
	var reqs []Request
	for i := 0; i < 4; i++ {
		c, err := workloads.SupremacyCircuit(dev.Topo, 16, 300, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{Tag: string(rune('a' + i)), Circuit: c})
	}
	p := New(dev, Config{Workers: 2}) // compile-only, run-to-optimality scheduler
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := p.Batch(ctx, reqs)
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("Batch took %v after cancellation, want prompt return", elapsed)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(results), len(reqs))
	}
	canceled := 0
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("item %q failed with %v, want context.Canceled", r.Tag, r.Err)
			}
			canceled++
		} else if r.Schedule == nil {
			t.Fatalf("item %q has neither error nor schedule", r.Tag)
		}
	}
	if canceled == 0 {
		t.Fatal("no item observed the cancellation (SMT finished before cancel; enlarge the circuits)")
	}
}

// TestBatchFailSoft: one malformed item must not poison its siblings.
func TestBatchFailSoft(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{Budget: 5 * time.Second})
	reqs := []Request{
		{Tag: "good1", Circuit: crosstalkCircuit(1)},
		{Tag: "bad", Source: "cx q0 q1 q2 garbage"},
		{Tag: "good2", Source: "h q0\ncx q5,q10\nmeasure q10"},
	}
	results := p.Batch(context.Background(), reqs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good items failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("malformed item did not fail")
	}
	if !strings.Contains(results[1].Err.Error(), "parse") {
		t.Fatalf("error should name the failing stage: %v", results[1].Err)
	}
}

// TestOversizedCircuitFailsCleanly: a circuit wider than the device must
// fail with a descriptive error in every stack (not panic downstream on
// per-qubit calibration arrays).
func TestOversizedCircuitFailsCleanly(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{Shots: 64, Mitigate: true})
	wide := circuit.New(30)
	wide.CNOT(0, 29)
	wide.Measure(29)
	for _, req := range []Request{
		{Tag: "prebuilt", Circuit: wide},
		{Tag: "qasm", Source: "OPENQASM 2.0;\nqreg q[30];\ncx q[0],q[29];\n"},
	} {
		res := p.Compile(context.Background(), req)
		if res.Err == nil {
			t.Fatalf("%s: oversized circuit did not fail", req.Tag)
		}
		if !strings.Contains(res.Err.Error(), "30 qubits") {
			t.Fatalf("%s: unhelpful error: %v", req.Tag, res.Err)
		}
	}
}

// TestSourceParsing: the parse stage auto-detects OpenQASM vs gate-list.
func TestSourceParsing(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{Budget: 5 * time.Second})
	qasmSrc := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[20];\ncreg c[2];\nh q[5];\ncx q[5],q[10];\nmeasure q[10] -> c[0];\n"
	for _, req := range []Request{
		{Tag: "text", Source: "h q5\ncx q5,q10\nmeasure q10"},
		{Tag: "qasm", Source: qasmSrc},
	} {
		res := p.Compile(context.Background(), req)
		if res.Err != nil {
			t.Fatalf("%s: %v", req.Tag, res.Err)
		}
		if res.Circuit == nil || res.Schedule == nil {
			t.Fatalf("%s: incomplete result", req.Tag)
		}
	}
}

// TestScheduleStageHonorsPerRequestScheduler: scheduler comparisons batch
// one request per scheduler over the same circuit.
func TestScheduleStageHonorsPerRequestScheduler(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{Budget: 5 * time.Second})
	c := crosstalkCircuit(2)
	results := p.Batch(context.Background(), []Request{
		{Tag: "serial", Circuit: c, Scheduler: core.SerialSched{}},
		{Tag: "par", Circuit: c, Scheduler: core.ParSched{}},
		{Tag: "xtalk", Circuit: c},
	})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Tag, r.Err)
		}
	}
	if s, x := results[0].Schedule.Makespan(), results[1].Schedule.Makespan(); s <= x {
		t.Fatalf("serial makespan %v should exceed par makespan %v", s, x)
	}
	if got := results[0].Schedule.Scheduler; got != "SerialSched" {
		t.Fatalf("request scheduler override ignored: %q", got)
	}
}

// TestPrecanceledContext: a canceled context fails items immediately.
func TestPrecanceledContext(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := p.Compile(ctx, Request{Tag: "x", Circuit: crosstalkCircuit(1)})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", res.Err)
	}
}

// TestBatchPartitionedCancellation: ctx canceled while partitioned window
// solves are in flight must fail-soft in Batch — every item either carries
// the cancellation error or a valid incumbent schedule — without leaking
// window-solver goroutines (run under -race in CI).
func TestBatchPartitionedCancellation(t *testing.T) {
	dev := testDev(t)
	var reqs []Request
	for i := 0; i < 4; i++ {
		c, err := workloads.SupremacyCircuit(dev.Topo, 16, 300, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{Tag: string(rune('a' + i)), Circuit: c})
	}
	before := runtime.NumGoroutine()
	p := New(dev, Config{Workers: 2, Partition: true, WindowGates: 20})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results := p.Batch(ctx, reqs)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("Batch took %v after cancellation, want prompt return", elapsed)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(results), len(reqs))
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("result %d is nil", i)
		}
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("item %q failed with %v, want context.Canceled", r.Tag, r.Err)
			}
		} else if r.Schedule == nil {
			t.Fatalf("item %q has neither error nor schedule", r.Tag)
		} else if err := r.Schedule.Validate(); err != nil {
			t.Fatalf("item %q incumbent invalid: %v", r.Tag, err)
		}
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, got)
	}
}

// TestPartitionedBatchDeterministicAcrossWorkers: the same requests through
// partitioned pipelines with different worker counts must produce
// byte-identical schedules (no anytime budget involved).
func TestPartitionedBatchDeterministicAcrossWorkers(t *testing.T) {
	dev := testDev(t)
	c, err := workloads.SupremacyCircuit(dev.Topo, dev.Topo.NQubits, 2*dev.Topo.NQubits, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []string {
		p := New(dev, Config{Workers: workers, Partition: true, WindowGates: 4})
		reqs := []Request{
			{Tag: "sup", Circuit: c},
			{Tag: "xt", Circuit: crosstalkCircuit(2)},
		}
		results := p.Batch(context.Background(), reqs)
		var out []string
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("workers=%d %s: %v", workers, r.Tag, r.Err)
			}
			out = append(out, r.Schedule.Render())
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("schedule %d differs between 1 and %d workers:\n%s\nvs\n%s", i, workers, want[i], got[i])
			}
		}
	}
}

// TestPipelineSolveStatsSurfaced: the schedule stage must accumulate
// per-window solver effort and StatsString must render it.
func TestPipelineSolveStatsSurfaced(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{Partition: true, WindowGates: 2, Budget: 5 * time.Second})
	res := p.Compile(context.Background(), Request{Tag: "x", Circuit: crosstalkCircuit(3)})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := p.SolveStats()
	if st.Windows == 0 || st.Windows != res.Schedule.Stats.Windows {
		t.Fatalf("pipeline solve stats %+v do not match schedule stats %+v", st, res.Schedule.Stats)
	}
	if st.DiffAtoms == 0 || st.DiffAtoms != res.Schedule.Stats.DiffAtoms {
		t.Fatalf("per-tier theory counters not aggregated: pipeline %+v vs schedule %+v", st, res.Schedule.Stats)
	}
	if !strings.Contains(p.StatsString(), "solver:") {
		t.Fatalf("StatsString missing solver effort line:\n%s", p.StatsString())
	}
	if !strings.Contains(p.StatsString(), "theory:") {
		t.Fatalf("StatsString missing per-tier theory split:\n%s", p.StatsString())
	}
}

// TestGroundTruthNoiseMemoized: one extraction per (calibration, threshold).
func TestGroundTruthNoiseMemoized(t *testing.T) {
	dev := testDev(t)
	a := GroundTruthNoise(dev, 3)
	b := GroundTruthNoise(dev, 3)
	if a != b {
		t.Fatal("same calibration+threshold should share one NoiseData")
	}
	if c := GroundTruthNoise(dev, 2); c == a {
		t.Fatal("different thresholds must not share NoiseData")
	}
	dev2 := device.MustNew(device.Poughkeepsie, 2)
	if d := GroundTruthNoise(dev2, 3); d == a {
		t.Fatal("different seeds must not share NoiseData")
	}
}
