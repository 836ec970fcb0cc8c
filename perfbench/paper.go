package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"xtalk/internal/certify"
	"xtalk/internal/characterize"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/metrics"
	"xtalk/internal/noise"
	"xtalk/internal/pipeline"
	"xtalk/internal/rb"
	"xtalk/internal/workloads"
)

// paper_loop sizing. The RB shape is fixed here and recorded: five
// sequence lengths, six sequences each, 64 shots per sequence.
const (
	paperDays       = 1   // refresh days per pass
	paperPassSecond = 5.5 // nominal seconds one pass takes; sizes the pass count
	paperSetups     = 3
)

func rbShape(seed int64) rb.Config {
	return rb.Config{Lengths: []int{1, 2, 4, 8, 16}, Sequences: 6, Shots: 64, Seed: seed}
}

// rbSeed is a campaign's RB seed. It depends on the device and the day,
// not on the run seed: the measured noise a campaign returns is the
// scheduler's input, so a seeded campaign would hand every run different
// solver instances, and with them different work. The run seed drives the
// simulator's shots instead.
func rbSeed(dev, day int) int64 { return 1000 + int64(dev)*10 + int64(day) }

// campaign tallies characterization outcomes against ground truth.
type campaign struct {
	truth, found int
	deviceTime   time.Duration
	pairs        int
	batches      int
	executions   int
}

// add scores one campaign report against the device's true high-crosstalk
// pairs.
func (c *campaign) add(rep *characterize.Report, dev *device.Device, cfg rb.Config) {
	truth := map[device.EdgePair]bool{}
	for _, p := range dev.Cal.HighCrosstalkPairs(threshold) {
		truth[p] = true
	}
	c.truth += len(truth)
	for _, p := range rep.HighCrosstalkPairs(threshold) {
		if truth[p] {
			c.found++
		}
	}
	c.deviceTime += rep.MachineTime
	c.pairs += rep.Plan.NumPairs()
	c.batches += rep.Plan.NumExperiments()
	c.executions += rep.Plan.NumExperiments() * cfg.TotalExecutions() * 2
}

func (c *campaign) recall() float64 {
	if c.truth == 0 {
		return 0
	}
	return float64(c.found) / float64(c.truth)
}

// dayZero runs the day-0 one-hop+binpack campaign on every paper device.
func dayZero(tally *campaign) ([][]device.EdgePair, string, error) {
	high := make([][]device.EdgePair, len(paperSystems))
	exact := ""
	for i, name := range paperSystems {
		dev, err := device.NewForDay(name, calSeed, 0)
		if err != nil {
			return nil, "", err
		}
		cfg := rbShape(rbSeed(i, 0))
		rep, err := characterize.Run(dev, characterize.OneHopBinPacked, nil, cfg)
		if err != nil {
			return nil, "", err
		}
		tally.add(rep, dev, cfg)
		high[i] = rep.HighCrosstalkPairs(threshold)
		exact += fmt.Sprintf("%s:%v:%v;", name, high[i], rep.MachineTime)
	}
	return high, exact, nil
}

// refresh runs one day's high-crosstalk-only campaign (Opt 3) and returns
// the measured noise data the scheduler consumes.
func refresh(dev *device.Device, high []device.EdgePair, devIdx, day int, tally *campaign) (*core.NoiseData, error) {
	cfg := rbShape(rbSeed(devIdx, day))
	rep, err := characterize.Run(dev, characterize.HighCrosstalkOnly, high, cfg)
	if err != nil {
		return nil, err
	}
	tally.add(rep, dev, cfg)
	return rep.NoiseData(dev, threshold), nil
}

// paperOp is one SWAP circuit evaluated on one device-day.
type paperOp struct {
	name string
	circ *circuit.Circuit
	dev  *device.Device
	nd   *core.NoiseData
	seed int64
}

// paperOut is an op's exact outputs, solver counters and quality ratios.
type paperOut struct {
	exact      string
	counts     string
	schedRatio float64
	errRatio   float64
}

// evalOp schedules the circuit with XtalkSched on the measured noise and
// with ParSched, executes both on the noisy simulator with readout
// mitigation, and scores both against the ideal distribution. t may be nil.
func evalOp(ctx context.Context, op paperOp, t *tracer, a *layerAcc) (paperOut, error) {
	do := func(name string, f func()) {
		if t != nil {
			t.do(name, f)
		} else {
			f()
		}
	}
	var xs, ps *core.Schedule
	var err error
	do("core.schedule", func() {
		xs, err = core.ScheduleWithContext(ctx, core.NewXtalkSched(op.nd, core.DefaultXtalkConfig()), op.circ, op.dev)
	})
	if err != nil {
		return paperOut{}, err
	}
	do("core.parsched", func() { ps, err = core.ParSched{}.Schedule(op.circ, op.dev) })
	if err != nil {
		return paperOut{}, err
	}
	var ideal map[string]float64
	var idealQ []int
	do("noise.ideal", func() { ideal, idealQ = noise.IdealProbabilities(op.circ) })
	var errs [2]float64
	for k, s := range []*core.Schedule{xs, ps} {
		var raw *noise.Result
		do("noise.exec", func() {
			raw, err = noise.NewExecutor(op.dev).Run(s, noise.Options{Shots: execShots, Seed: op.seed + int64(k)})
		})
		if err != nil {
			return paperOut{}, err
		}
		var dist metrics.Distribution
		do("metrics.mitigate", func() { dist, err = pipeline.Mitigated(op.dev, raw) })
		if err != nil {
			return paperOut{}, err
		}
		errs[k] = tvd(byQubit(ideal, idealQ), byQubit(dist, raw.MeasuredQubits))
	}
	// Both schedules are scored by the certifier on the device's true
	// noise, whatever noise the scheduler consumed.
	var costs [2]float64
	for k, s := range []*core.Schedule{xs, ps} {
		var rep *certify.Report
		do("certify.check", func() { rep = certify.Check(s, certify.Config{Omega: omega, Threshold: threshold}) })
		if !rep.OK() {
			return paperOut{}, fmt.Errorf("%s: %s schedule failed certification: %v", op.name, s.Scheduler, rep.Err())
		}
		costs[k] = rep.CostFloat
	}
	st := xs.Stats
	if a != nil {
		a.solve.Add(st)
		a.counts["noise.shots"] += 2 * execShots
	}
	return paperOut{
		exact:      fmt.Sprintf("cost=%.12g errX=%v errPar=%v", xs.Cost(op.nd, omega), errs[0], errs[1]),
		counts:     fmt.Sprintf("pivots=%d conflicts=%d", st.Pivots, st.Conflicts),
		schedRatio: costs[1] / costs[0],
		errRatio:   errorRatio(errs[1], errs[0]),
	}, nil
}

// paperCircuits builds the paper's SWAP circuits for device i.
func paperCircuits(i int) ([]*circuit.Circuit, [][2]int, error) {
	topo, err := device.TopologyFor(paperSystems[i])
	if err != nil {
		return nil, nil, err
	}
	pairs := workloads.SwapBenchmarkPairs[paperSystems[i]]
	out := make([]*circuit.Circuit, len(pairs))
	for k, p := range pairs {
		if out[k], err = workloads.SwapCircuit(topo, p[0], p[1]); err != nil {
			return nil, nil, err
		}
	}
	return out, pairs, nil
}

func runPaper(r *runCtx) error {
	ctx := context.Background()
	// Set-up, repeated: device synthesis plus the day-0 campaign.
	var setups []float64
	var high [][]device.EdgePair
	var tally campaign
	refExact := ""
	for rep := 0; rep < paperSetups; rep++ {
		var tl campaign
		t0 := time.Now()
		h, exact, err := dayZero(&tl)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep == 0 {
			refExact, high, tally = exact, h, tl
		} else if exact != refExact {
			return fmt.Errorf("determinism: day-0 campaign %d found %s, campaign 0 found %s", rep, exact, refExact)
		}
	}
	if r.trace {
		return tracePaper(ctx, r, high)
	}
	r.put("setup_s", median(setups), "s")
	r.diag["setup_s_all"] = setups

	passes := int(r.seconds/paperPassSecond + 0.5)
	if passes < 2 {
		passes = 2
	}
	var lat []float64
	var first []paperOut
	ops, countDrift := 0, 0
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		var tl campaign
		k := 0
		for day := 1; day <= paperDays; day++ {
			for i, name := range paperSystems {
				dev, err := device.NewForDay(name, calSeed, day)
				if err != nil {
					return err
				}
				nd, err := refresh(dev, high[i], i, day, &tl)
				if err != nil {
					return err
				}
				circs, pairs, err := paperCircuits(i)
				if err != nil {
					return err
				}
				for c, circ := range circs {
					op := paperOp{name: fmt.Sprintf("%s day %d swap %v", name, day, pairs[c]), circ: circ, dev: dev, nd: nd, seed: r.seed*100000 + int64(k)*2}
					s := time.Now()
					out, err := evalOp(ctx, op, nil, nil)
					if err != nil {
						return err
					}
					lat = append(lat, ms(time.Since(s)))
					ops++
					if pass == 0 {
						first = append(first, out)
					} else if out.exact != first[k].exact {
						return fmt.Errorf("determinism: %s: pass %d gave %s, pass 0 gave %s", op.name, pass, out.exact, first[k].exact)
					} else if out.counts != first[k].counts {
						countDrift++
					}
					k++
				}
			}
		}
		if pass == 0 {
			tally.found += tl.found
			tally.truth += tl.truth
			tally.deviceTime += tl.deviceTime
		}
	}
	elapsed := time.Since(t0)
	var sr, er []float64
	for _, o := range first {
		sr = append(sr, o.schedRatio)
		er = append(er, o.errRatio)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	p, tv, beyond := tail(lat)
	// Every op that returned passed certification of both schedules; a
	// failed check or a failed call aborts the run.
	r.res.Attempted, r.res.Failed = ops, 0
	r.put("p50_ms", median(lat), "ms")
	r.put("tail_ms", tv, "ms")
	r.put("ops_per_s", float64(ops)/elapsed.Seconds(), "1/s")
	r.put("ok_share", 1, "share")
	r.put("peak_rss_mb", rss, "MB")
	r.put("sched_gain", geomean(sr), "ratio")
	r.put("error_gain", geomean(er), "ratio")
	r.put("char_recall", tally.recall(), "share")
	r.put("char_device_s", tally.deviceTime.Seconds(), "model_s")
	r.diag["tail_percentile"] = p
	r.diag["tail_beyond"] = beyond
	r.diag["passes"] = passes
	r.diag["rb_shape"] = rbShape(0)
	r.diag["smt_count_drift"] = countDrift
	return nil
}

// tracePaper replays one pass of the loop with spans: each refresh and
// each circuit evaluation is an op.
func tracePaper(ctx context.Context, r *runCtx, high [][]device.EdgePair) error {
	t := &tracer{}
	a := newLayerAcc()
	k := 0
	var lastOps []paperOp
	for day := 1; day <= paperDays; day++ {
		for i, name := range paperSystems {
			dev, err := device.NewForDay(name, calSeed, day)
			if err != nil {
				return err
			}
			var tl campaign
			var nd *core.NoiseData
			root := t.begin("op")
			t.do("characterize.run", func() { nd, err = refresh(dev, high[i], i, day, &tl) })
			t.end(root)
			t.op++
			a.ops++
			if err != nil {
				return err
			}
			a.counts["characterize.pairs"] += float64(tl.pairs)
			a.counts["characterize.batches"] += float64(tl.batches)
			a.counts["rb.executions"] += float64(tl.executions)
			circs, pairs, err := paperCircuits(i)
			if err != nil {
				return err
			}
			for c, circ := range circs {
				op := paperOp{name: fmt.Sprintf("%s day %d swap %v", name, day, pairs[c]), circ: circ, dev: dev, nd: nd, seed: r.seed*100000 + int64(k)*2}
				if c == 0 {
					lastOps = lastOps[:0]
				}
				lastOps = append(lastOps, op)
				root := t.begin("op")
				_, err := evalOp(ctx, op, t, a)
				t.end(root)
				t.op++
				a.ops++
				if err != nil {
					return err
				}
				k++
			}
		}
	}
	// Tracing overhead: the first circuits of the last device-day again,
	// alternately without and with spans.
	a.rtUntr, a.rtTrace = nil, nil
	for k := 0; k < overheadEvals; k++ {
		for _, traced := range []bool{false, true} {
			var tt *tracer
			if traced {
				tt = &tracer{}
			}
			t0 := time.Now()
			if _, err := evalOp(ctx, lastOps[k%len(lastOps)], tt, nil); err != nil {
				return err
			}
			if traced {
				a.rtTrace = append(a.rtTrace, ms(time.Since(t0)))
			} else {
				a.rtUntr = append(a.rtUntr, ms(time.Since(t0)))
			}
		}
	}
	return a.finish(r, t, "paper_loop")
}

// overheadEvals is how many circuit evaluations each side of paper_loop's
// tracing-overhead estimate takes.
const overheadEvals = 10
