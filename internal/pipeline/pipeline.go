// Package pipeline is the staged compilation pipeline of the paper's
// toolchain (Figure 2): Parse → Route → Schedule → InsertBarriers → Execute
// → Mitigate. It is the one implementation of the end-to-end flow that the
// public facade, the CLI tools, the experiment drivers and the serving
// layer all share.
//
// Pipeline is the one engine: one device, one noise input, one stage stack
// and one solve pool, all fixed at construction, so any number of
// compilations may share it concurrently — the property the serving layer
// (internal/serve) relies on. Compile returns a Result whose statistics
// (stage timings, solver effort) are request-local, and folds them into the
// engine's per-stage totals under one short lock per request (rendered by
// StatsString). Artifact freezes a successful compile into an immutable
// CompiledArtifact, the cacheable unit of the serving layer,
// content-addressed by Fingerprint.
//
// Every stage is context-aware: canceling the context aborts in-flight SMT
// optimization within one conflict-check interval and fails the remaining
// batch items fast, each carrying the cancellation error (fail-soft: one
// item's failure never aborts its siblings).
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/metrics"
	"xtalk/internal/noise"
)

// Request is one compilation work item.
type Request struct {
	// Tag is an opaque caller label echoed on the Result.
	Tag string
	// Circuit is the program to compile. When nil, Source is parsed instead.
	Circuit *circuit.Circuit
	// Source is textual program input: OpenQASM 2.0 when it contains an
	// OPENQASM declaration, the library's gate-list format otherwise.
	Source string
	// Scheduler overrides the engine's scheduler for this item (omega
	// sweeps and scheduler comparisons batch one request per scheduler).
	Scheduler core.Scheduler
	// Shots overrides the engine's execution shot count when positive.
	Shots int
	// Seed seeds this item's noisy execution.
	Seed int64
	// Budget, when positive, caps this item's anytime SMT budget below the
	// engine's configured one (it never raises it): Pipeline.Scheduler
	// rebuilds the engine's scheduler with Timeout = min(engine budget,
	// Budget). Deliberately excluded from artifact fingerprints — the
	// serving layer uses it for deadline propagation and keeps capped
	// (degraded) artifacts out of the caches. Ignored when Scheduler is set.
	Budget time.Duration
	// DisableCrosstalk executes on the crosstalk-free version of the device
	// (the paper's "crosstalk-free hardware region" baselines).
	DisableCrosstalk bool
}

// StageTiming is one stage's wall-clock cost for one request.
type StageTiming struct {
	Stage   string
	Elapsed time.Duration
	// Failed records whether the stage returned this request's error.
	Failed bool
}

// Result is the outcome of compiling (and optionally executing) one Request.
// Fields are populated progressively as stages run; on failure Err records
// the failing stage and the fields of completed stages remain valid. All
// statistics are request-local: a Result never aliases engine state.
type Result struct {
	Tag string
	Req Request
	// Circuit is the current IR: parsed, then rewritten in place by the
	// routing/decomposition stages.
	Circuit *circuit.Circuit
	// Schedule is the timed schedule produced by the Schedule stage.
	Schedule *core.Schedule
	// Barriered is the executable circuit with the schedule's serialization
	// decisions enforced by barriers.
	Barriered *circuit.Circuit
	// Raw is the noisy-execution histogram (execution pipelines only).
	Raw *noise.Result
	// Dist is the outcome distribution: readout-mitigated when the pipeline
	// mitigates, empirical otherwise (execution pipelines only).
	Dist metrics.Distribution
	// Timings records per-stage wall-clock durations for this item.
	Timings []StageTiming
	// Solve quantifies the SMT effort behind this item's schedule (zero for
	// baseline schedulers).
	Solve core.SolveStats
	// Err is the first stage error (nil on success). Batch never aborts on
	// a failed item; check Err per item.
	Err error
}

// StageElapsed returns this item's wall-clock cost in the named stage
// (0 when the stage did not run).
func (r *Result) StageElapsed(stage string) time.Duration {
	for _, t := range r.Timings {
		if t.Stage == stage {
			return t.Elapsed
		}
	}
	return 0
}

// Config shapes a Pipeline. Certification is not among its knobs: every
// schedule stage passes its schedule through the independent certifier.
type Config struct {
	// Noise is the scheduler's characterization input. When nil the
	// device's ground truth is extracted at Threshold, once per engine.
	Noise *core.NoiseData
	// Threshold is the high-crosstalk detection ratio used when Noise is
	// nil (default 3, the paper's setting).
	Threshold float64
	// Omega is the crosstalk weight factor for the default scheduler. The
	// zero value means the paper default 0.5; pass a negative value for
	// the true omega=0 (decoherence-only) ablation.
	Omega float64
	// Budget is the per-schedule anytime SMT budget for the default
	// scheduler (0 = run to optimality).
	Budget time.Duration
	// Partition routes the default scheduler through the conflict-
	// partitioned engine: each circuit's crosstalk conflict graph is split
	// into independent components and bounded windows, every window solved
	// as its own small SMT instance over the engine's solve pool (so
	// batch compilation overlaps windows across circuits), and the
	// per-window schedules stitched back with barrier-respecting offsets.
	Partition bool
	// WindowGates caps the two-qubit gates per window SMT instance when
	// Partition or Portfolio is on (0 = core.DefaultMaxWindowGates).
	WindowGates int
	// Portfolio races the partitioned SMT engine against the greedy
	// heuristic under the same Budget and keeps the lower-cost schedule
	// (implies Partition).
	Portfolio bool
	// Route lowers circuits onto the device topology (meet-in-the-middle
	// SWAP insertion) before scheduling.
	Route bool
	// DecomposeSwaps rewrites SWAP gates into three CNOTs before
	// scheduling, as the hardware requires.
	DecomposeSwaps bool
	// Shots enables the execution stage with this default shot count
	// (0 = compile-only pipeline).
	Shots int
	// Mitigate applies readout-error mitigation to executed results (the
	// paper applies it to all reported numbers).
	Mitigate bool
	// Workers bounds batch concurrency (default GOMAXPROCS).
	Workers int
}

func defaultStages(cfg Config) []stage {
	st := []stage{parseStage{}}
	if cfg.Route {
		st = append(st, routeStage{})
	}
	if cfg.DecomposeSwaps {
		st = append(st, decomposeStage{})
	}
	st = append(st, scheduleStage{}, barrierStage{})
	if cfg.Shots > 0 {
		st = append(st, executeStage{})
		if cfg.Mitigate {
			st = append(st, mitigateStage{})
		}
	}
	return st
}

// Pipeline is the compilation engine: one device, one noise input, one
// stage stack and one solve pool, fixed at construction and shared by any
// number of concurrent compilations. The only state that changes after
// construction is the per-stage totals, folded in under one short lock per
// request, so every method is safe for concurrent use.
type Pipeline struct {
	Dev   *device.Device
	Noise *core.NoiseData

	cfg    Config
	sched  core.Scheduler
	stages []stage
	// pool bounds concurrent SMT window solves across the whole engine:
	// when a batch compiles many circuits with the partitioned engine, all
	// their windows contend for the same Config.Workers-sized pool.
	pool *core.SolvePool
	// groundTruth records that Noise is the device's ground truth at the
	// engine threshold (extracted here, or the GroundTruthNoise memo handed
	// in as Config.Noise), so the certifier re-derives crosstalk from the
	// raw calibration instead of trusting the engine's input.
	groundTruth bool
	// fpEngine and fpNoise are the engine's fixed fingerprint inputs — the
	// device and configuration, and the noise digest — computed once at
	// construction instead of on every fingerprint.
	fpEngine, fpNoise []byte

	mu     sync.Mutex
	totals []StageStats // one per stage, in stage-stack order
	solve  core.SolveStats
}

// NewFromSpec builds a pipeline over the device described by a device spec
// (preset name or topology generator — see device.ParseSpec for the
// grammar), synthesized with the given calibration seed and day. It is the
// uniform spec-string entry point shared by the facade and the CLI tools.
func NewFromSpec(spec string, seed int64, day int, cfg Config) (*Pipeline, error) {
	dev, err := device.NewFromSpecForDay(spec, seed, day)
	if err != nil {
		return nil, err
	}
	return New(dev, cfg), nil
}

// New builds a pipeline over dev. See Config for the knobs; the zero Config
// is a compile-only ground-truth-noise XtalkSched pipeline.
func New(dev *device.Device, cfg Config) *Pipeline {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	p := &Pipeline{Dev: dev, Noise: cfg.Noise, cfg: cfg, stages: defaultStages(cfg)}
	if p.Noise == nil {
		// Not memoized: engines are built per request identity in the
		// serving layer, and a process-global memo keyed by untrusted
		// (device, seed, day) triples would grow without bound.
		p.Noise = core.NoiseDataFromDevice(dev, cfg.Threshold)
		p.groundTruth = true
	} else {
		p.groundTruth = p.Noise == memoizedGroundTruth(dev, cfg.Threshold)
	}
	p.pool = core.NewSolvePool(p.workers())
	p.sched = p.buildScheduler(cfg.Budget)
	p.totals = make([]StageStats, len(p.stages))
	p.initFingerprint()
	return p
}

// Config returns the configuration the engine was built with (Threshold
// normalized).
func (p *Pipeline) Config() Config { return p.cfg }

// workers is the engine's concurrency bound: Config.Workers, default
// GOMAXPROCS.
func (p *Pipeline) workers() int {
	if p.cfg.Workers > 0 {
		return p.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// omega resolves the crosstalk weight the engine's scheduler and cost
// reports use (Config.Omega conventions: 0 = paper default, negative =
// true omega 0).
func (p *Pipeline) omega() float64 {
	if p.cfg.Omega > 0 {
		return p.cfg.Omega
	}
	if p.cfg.Omega < 0 {
		return 0
	}
	return core.DefaultXtalkConfig().Omega
}

// Scheduler returns the scheduler a request runs under, and is the one
// place that choice is made: the request's own override when set;
// otherwise the engine's scheduler, rebuilt with the request's Budget when
// that is below the configured one (a configured 0 runs to optimality, so
// any positive Budget is below it); otherwise the prebuilt scheduler. The
// rebuild never mutates the shared engine. Deadlines cap the anytime
// budget rather than the context: budget expiry yields the incumbent (or
// heuristic fallback) as a valid schedule, where a context deadline hit
// before the first incumbent would fail the compile outright.
func (p *Pipeline) Scheduler(req *Request) core.Scheduler {
	if req.Scheduler != nil {
		return req.Scheduler
	}
	if req.Budget > 0 && (p.cfg.Budget <= 0 || req.Budget < p.cfg.Budget) {
		return p.buildScheduler(req.Budget)
	}
	return p.sched
}

// buildScheduler builds the engine's scheduler with the given anytime
// budget: monolithic XtalkSched, the conflict-partitioned engine over the
// engine's solve pool, or the portfolio racing that engine against the
// greedy heuristic.
func (p *Pipeline) buildScheduler(budget time.Duration) core.Scheduler {
	xc := core.DefaultXtalkConfig()
	xc.Omega = p.omega()
	xc.Timeout = budget
	if !p.cfg.Partition && !p.cfg.Portfolio {
		return core.NewXtalkSched(p.Noise, xc)
	}
	part := core.NewPartitionedXtalkSched(p.Noise, xc, core.PartitionOpts{MaxWindowGates: p.cfg.WindowGates})
	part.Pool = p.pool
	if !p.cfg.Portfolio {
		return part
	}
	return &core.PortfolioSched{
		Noise: p.Noise,
		Omega: xc.Omega,
		Candidates: []core.Scheduler{
			&core.HeuristicXtalkSched{Noise: p.Noise, Omega: xc.Omega},
			part,
		},
	}
}

// Compile runs one request through the stage stack and folds its
// request-local statistics into the engine's totals. The returned Result
// always carries the request tag; Err records the first failing stage.
func (p *Pipeline) Compile(ctx context.Context, req Request) *Result {
	res := &Result{Tag: req.Tag, Req: req, Circuit: req.Circuit}
	for _, st := range p.stages {
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		t0 := time.Now()
		err := st.Run(ctx, p, res)
		res.Timings = append(res.Timings, StageTiming{Stage: st.Name(), Elapsed: time.Since(t0), Failed: err != nil})
		if err != nil {
			res.Err = fmt.Errorf("stage %s: %w", st.Name(), err)
			break
		}
	}
	p.absorb(res)
	return res
}

// Batch compiles every request concurrently over a bounded worker pool
// (Config.Workers, default GOMAXPROCS) and returns results in request
// order. Item failures are fail-soft: each Result carries its own Err and
// never aborts siblings. Canceling ctx aborts in-flight SMT searches within
// one conflict-check interval and marks all unstarted items with the
// context's error, so Batch returns promptly with partial results.
func (p *Pipeline) Batch(ctx context.Context, reqs []Request) []*Result {
	out := make([]*Result, len(reqs))
	workers := min(p.workers(), len(reqs))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(reqs) {
					return
				}
				if err := ctx.Err(); err != nil {
					// Canceled: drain the remaining queue without compiling
					// so callers get one tagged result per request.
					out[i] = &Result{Tag: reqs[i].Tag, Req: reqs[i], Err: err}
				} else {
					out[i] = p.Compile(ctx, reqs[i])
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// StageStats aggregates one stage's cost across every request a pipeline
// has processed.
type StageStats struct {
	Runs   int
	Errors int
	Total  time.Duration
	Max    time.Duration
}

// absorb folds one Result's request-local statistics into the engine's
// totals under one short lock. Compile appends timings in stage-stack
// order and stops at the first failure, so Timings[i] is stage i.
func (p *Pipeline) absorb(res *Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, t := range res.Timings {
		s := &p.totals[i]
		s.Runs++
		s.Total += t.Elapsed
		s.Max = max(s.Max, t.Elapsed)
		if t.Failed {
			s.Errors++
		}
	}
	p.solve.Add(res.Solve)
}

// SolveStats returns the aggregated SMT search effort across every schedule
// the pipeline has produced.
func (p *Pipeline) SolveStats() core.SolveStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.solve
}

// Stats returns a snapshot of the per-stage aggregates of every stage that
// has run, keyed by stage name.
func (p *Pipeline) Stats() map[string]StageStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]StageStats, len(p.totals))
	for i, s := range p.totals {
		if s.Runs > 0 {
			out[p.stages[i].Name()] = s
		}
	}
	return out
}

// StatsString renders the per-stage aggregates of every stage that has run
// as an aligned table, stages in execution order.
func (p *Pipeline) StatsString() string {
	p.mu.Lock()
	totals := append([]StageStats(nil), p.totals...)
	solve := p.solve
	p.mu.Unlock()
	var sb strings.Builder
	for i, s := range totals {
		if s.Runs == 0 {
			continue
		}
		if sb.Len() == 0 {
			sb.WriteString("stage           runs  errs  total        max          mean\n")
		}
		mean := s.Total / time.Duration(s.Runs)
		fmt.Fprintf(&sb, "%-14s  %4d  %4d  %-11v  %-11v  %v\n",
			p.stages[i].Name(), s.Runs, s.Errors, s.Total.Round(time.Microsecond),
			s.Max.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	if sb.Len() == 0 {
		return "pipeline: no stages run\n"
	}
	if solve.Windows > 0 {
		fmt.Fprintf(&sb, "solver: %s\n", solve)
	}
	return sb.String()
}
