package pipeline

import (
	"context"
	"sync"
	"testing"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/qasm"
)

// fingerprintCircuits builds two semantically identical circuits whose
// independent gates were appended in different orders.
func fingerprintCircuits() (*circuit.Circuit, *circuit.Circuit) {
	a := circuit.New(20)
	a.H(5)
	a.CNOT(5, 10)
	a.CNOT(11, 12)
	a.Measure(10)
	b := circuit.New(20)
	b.CNOT(11, 12) // independent of the 5-10 chain
	b.H(5)
	b.CNOT(5, 10)
	b.Measure(10)
	return a, b
}

// TestFingerprintOrderStable: semantically identical submissions must hash
// identically; any relevant difference — calibration day, seed, device,
// compile knobs, noise threshold — must change the hash.
func TestFingerprintOrderStable(t *testing.T) {
	dev := testDev(t)
	c := New(dev, Config{Budget: time.Second})
	a, b := fingerprintCircuits()
	if c.Fingerprint(a) != c.Fingerprint(b) {
		t.Fatal("independent-gate reordering changed the fingerprint")
	}

	distinct := map[string]string{"base": c.Fingerprint(a)}
	add := func(name, fp string) {
		for prev, pfp := range distinct {
			if pfp == fp {
				t.Fatalf("%s collides with %s", name, prev)
			}
		}
		distinct[name] = fp
	}
	day1, err := device.NewForDay(device.Poughkeepsie, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	add("day", New(day1, Config{Budget: time.Second}).Fingerprint(a))
	add("seed", New(device.MustNew(device.Poughkeepsie, 2), Config{Budget: time.Second}).Fingerprint(a))
	add("device", New(device.MustNew(device.Johannesburg, 1), Config{Budget: time.Second}).Fingerprint(a))
	add("omega", New(dev, Config{Budget: time.Second, Omega: 0.9}).Fingerprint(a))
	add("budget", New(dev, Config{Budget: 2 * time.Second}).Fingerprint(a))
	add("partition", New(dev, Config{Budget: time.Second, Partition: true}).Fingerprint(a))
	add("window", New(dev, Config{Budget: time.Second, Partition: true, WindowGates: 4}).Fingerprint(a))
	add("threshold", New(dev, Config{Budget: time.Second, Threshold: 2}).Fingerprint(a))
	add("route", New(dev, Config{Budget: time.Second, Route: true}).Fingerprint(a))
	add("circuit", c.Fingerprint(crosstalkCircuit(2)))
}

// TestArtifactFingerprintCoversRequestScheduler: an artifact compiled under
// a per-request scheduler override must not alias the default scheduler's
// cache entry.
func TestArtifactFingerprintCoversRequestScheduler(t *testing.T) {
	dev := testDev(t)
	c := New(dev, Config{Budget: 5 * time.Second})
	a, _ := fingerprintCircuits()
	def, err := c.Artifact(context.Background(), Request{Circuit: a})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := c.Artifact(context.Background(), Request{Circuit: a, Scheduler: core.SerialSched{}})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint == def.Fingerprint {
		t.Fatal("per-request scheduler override aliased the default fingerprint")
	}
	if serial.Scheduler != "SerialSched" {
		t.Fatalf("override not applied: %q", serial.Scheduler)
	}
}

// TestFingerprintIgnoresExecutionKnobs: Shots/Mitigate/Workers shape
// execution and aggregation, not the compiled artifact, and must not
// fragment the cache key space.
func TestFingerprintIgnoresExecutionKnobs(t *testing.T) {
	dev := testDev(t)
	a, _ := fingerprintCircuits()
	base := New(dev, Config{Budget: time.Second}).Fingerprint(a)
	with := New(dev, Config{Budget: time.Second, Shots: 1024, Mitigate: true, Workers: 4}).Fingerprint(a)
	if base != with {
		t.Fatal("execution knobs changed the compile fingerprint")
	}
}

// TestCompilerRunArtifact: Artifact must freeze a compile into an immutable
// artifact whose QASM parses back, and semantically identical submissions
// must produce byte-identical artifacts (not just equal fingerprints),
// because Artifact compiles the canonical form.
func TestCompilerRunArtifact(t *testing.T) {
	dev := testDev(t)
	c := New(dev, Config{Budget: 5 * time.Second})
	a, b := fingerprintCircuits()
	artA, err := c.Artifact(context.Background(), Request{Tag: "a", Circuit: a})
	if err != nil {
		t.Fatal(err)
	}
	artB, err := c.Artifact(context.Background(), Request{Tag: "b", Circuit: b})
	if err != nil {
		t.Fatal(err)
	}
	if artA.Fingerprint != artB.Fingerprint {
		t.Fatal("equivalent submissions produced different fingerprints")
	}
	if artA.QASM != artB.QASM {
		t.Fatalf("equivalent submissions produced different compiled QASM:\n%s\nvs\n%s", artA.QASM, artB.QASM)
	}
	if artA.QASM == "" || artA.Makespan <= 0 || artA.Scheduler == "" {
		t.Fatalf("incomplete artifact: %+v", artA)
	}
	if _, err := qasm.Parse(artA.QASM); err != nil {
		t.Fatalf("artifact QASM does not parse: %v\n%s", err, artA.QASM)
	}
	if artA.SizeBytes() <= int64(len(artA.QASM)) {
		t.Fatalf("size accounting smaller than payload: %d", artA.SizeBytes())
	}
}

// TestCompilerSharedConcurrently: one engine, many goroutines — per-request
// stats must land on each Result while the engine's totals stay race-free
// (run under -race in CI).
func TestCompilerSharedConcurrently(t *testing.T) {
	dev := testDev(t)
	c := New(dev, Config{Budget: 5 * time.Second})
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Compile(context.Background(), Request{Tag: "t", Circuit: crosstalkCircuit(1 + i%3)})
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("compile %d: %v", i, r.Err)
		}
		if len(r.Timings) == 0 || r.Solve.Windows == 0 {
			t.Fatalf("compile %d missing request-local stats: %+v", i, r)
		}
		if r.Schedule == nil || r.Barriered == nil {
			t.Fatalf("compile %d incomplete", i)
		}
	}
}

// TestPipelineAggregatesResultStats: the engine must fold request-local
// stats into its per-stage totals, stage errors included.
func TestPipelineAggregatesResultStats(t *testing.T) {
	dev := testDev(t)
	p := New(dev, Config{Budget: 5 * time.Second})
	p.Compile(context.Background(), Request{Tag: "ok", Circuit: crosstalkCircuit(1)})
	p.Compile(context.Background(), Request{Tag: "bad", Source: "cx q0 q1 q2 garbage"})
	stats := p.Stats()
	if stats["parse"].Runs != 2 || stats["parse"].Errors != 1 {
		t.Fatalf("parse stage stats %+v, want 2 runs / 1 error", stats["parse"])
	}
	if stats["schedule"].Runs != 1 || stats["schedule"].Errors != 0 {
		t.Fatalf("schedule stage stats %+v, want 1 run / 0 errors", stats["schedule"])
	}
	if p.SolveStats().Windows == 0 {
		t.Fatal("solver effort not aggregated")
	}
}

// TestSchedulerBudgetCap: a request Budget below the configured one rebuilds
// the engine's scheduler with that budget on every SMT candidate, keeping
// the engine's solve pool; a Budget at or above the configured one gets the
// prebuilt scheduler, and a request scheduler override comes back as given.
func TestSchedulerBudgetCap(t *testing.T) {
	dev := testDev(t)
	const capped = 20 * time.Millisecond
	checkPart := func(t *testing.T, p *Pipeline, s core.Scheduler) {
		t.Helper()
		part, ok := s.(*core.PartitionedXtalkSched)
		if !ok {
			t.Fatalf("candidate is %T, want *core.PartitionedXtalkSched", s)
		}
		if part.Config.Timeout != capped {
			t.Fatalf("partitioned timeout %v, want %v", part.Config.Timeout, capped)
		}
		if part.Pool == nil || part.Pool != p.pool {
			t.Fatal("capped partitioned scheduler lost the engine's solve pool")
		}
	}
	shapes := []struct {
		name  string
		cfg   Config
		check func(t *testing.T, p *Pipeline, s core.Scheduler)
	}{
		{"monolithic", Config{Budget: time.Second}, func(t *testing.T, _ *Pipeline, s core.Scheduler) {
			x, ok := s.(*core.XtalkSched)
			if !ok {
				t.Fatalf("got %T, want *core.XtalkSched", s)
			}
			if x.Config.Timeout != capped {
				t.Fatalf("timeout %v, want %v", x.Config.Timeout, capped)
			}
		}},
		{"partition", Config{Budget: time.Second, Partition: true}, checkPart},
		{"portfolio", Config{Budget: time.Second, Portfolio: true}, func(t *testing.T, p *Pipeline, s core.Scheduler) {
			port, ok := s.(*core.PortfolioSched)
			if !ok {
				t.Fatalf("got %T, want *core.PortfolioSched", s)
			}
			smt := 0
			for _, cand := range port.Candidates {
				if _, ok := cand.(*core.HeuristicXtalkSched); ok {
					continue
				}
				checkPart(t, p, cand)
				smt++
			}
			if smt != 1 {
				t.Fatalf("portfolio has %d SMT candidates, want 1", smt)
			}
		}},
		{"unbudgeted", Config{}, func(t *testing.T, _ *Pipeline, s core.Scheduler) {
			if x, ok := s.(*core.XtalkSched); !ok || x.Config.Timeout != capped {
				t.Fatalf("run-to-optimality engine not capped: %#v", s)
			}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			p := New(dev, sh.cfg)
			prebuilt := p.Scheduler(&Request{})
			sh.check(t, p, p.Scheduler(&Request{Budget: capped}))
			if sh.cfg.Budget > 0 {
				for _, b := range []time.Duration{sh.cfg.Budget, 2 * sh.cfg.Budget} {
					if got := p.Scheduler(&Request{Budget: b}); got != prebuilt {
						t.Fatalf("budget %v at or above the configured %v rebuilt the scheduler", b, sh.cfg.Budget)
					}
				}
			}
			override := &core.HeuristicXtalkSched{Noise: p.Noise, Omega: 0.5}
			if got := p.Scheduler(&Request{Scheduler: override, Budget: capped}); got != override {
				t.Fatalf("request scheduler override replaced by %T", got)
			}
		})
	}
}

// TestNewLeavesNoiseMemoAlone: engines built per (device, seed, day) — the
// serving layer builds one per request identity — must not file their
// ground truth in the process-global memo, which is never evicted. The
// certifier must still treat both kinds of ground-truth engine as ground
// truth, and measured noise as measured.
func TestNewLeavesNoiseMemoAlone(t *testing.T) {
	memoSize := func() int {
		n := 0
		noiseCache.Range(func(any, any) bool { n++; return true })
		return n
	}
	before := memoSize()
	for seed := int64(1000); seed < 1050; seed++ {
		dev, err := device.NewFromSpec("linear:4", seed)
		if err != nil {
			t.Fatal(err)
		}
		p := New(dev, Config{})
		if !p.groundTruth {
			t.Fatalf("seed %d: engine over its own ground truth not flagged", seed)
		}
		c := circuit.New(4)
		c.CNOT(0, 1)
		c.CNOT(2, 3)
		c.Measure(1)
		if res := p.Compile(context.Background(), Request{Circuit: c}); res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
	}
	if after := memoSize(); after != before {
		t.Fatalf("building 50 engines grew the ground-truth memo from %d to %d entries", before, after)
	}

	dev := testDev(t)
	if !New(dev, Config{Noise: GroundTruthNoise(dev, 3)}).groundTruth {
		t.Fatal("engine handed the memoized ground truth not flagged as ground truth")
	}
	if New(dev, Config{Noise: core.NoiseDataFromDevice(dev, 2)}).groundTruth {
		t.Fatal("engine over other noise data flagged as ground truth")
	}
}
