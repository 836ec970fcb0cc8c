// Package pipeline is the staged compilation pipeline of the paper's
// toolchain (Figure 2): Parse → Route → Schedule → InsertBarriers → Execute
// → Mitigate. It is the one implementation of the end-to-end flow that the
// public facade, the CLI tools, the experiment drivers and the serving
// layer all share.
//
// The package splits the flow into two layers:
//
//   - Compiler is the reusable engine: one device, one noise input, one
//     stage stack, immutable after construction and therefore safe for
//     unbounded concurrent use. Compile returns a Result whose statistics
//     (stage timings, solver effort) are request-local; Run freezes a
//     successful compile into an immutable CompiledArtifact, the cacheable
//     unit of the serving layer, content-addressed by Fingerprint.
//
//   - Pipeline wraps a Compiler with cross-request aggregation: per-stage
//     wall-clock totals, counts and error counts, plus accumulated solver
//     effort, rendered by StatsString. It is the convenient handle for CLIs
//     and experiments that compile many circuits and then report totals.
//
// Every stage is context-aware: canceling the context aborts in-flight SMT
// optimization within one conflict-check interval and fails the remaining
// batch items fast, each carrying the cancellation error (fail-soft: one
// item's failure never aborts its siblings).
package pipeline

import (
	"context"
	"strings"
	"sync"
	"time"

	"xtalk/internal/characterize"
	"xtalk/internal/circuit"
	"xtalk/internal/core"
	"xtalk/internal/device"
	"xtalk/internal/metrics"
	"xtalk/internal/noise"
	"xtalk/internal/rb"

	"fmt"
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
	// engine's configured one (it never raises it): the schedule stage
	// rebuilds the scheduler with Timeout = min(engine budget, Budget).
	// Deliberately excluded from artifact fingerprints — the serving layer
	// uses it for deadline propagation and keeps capped (degraded) artifacts
	// out of the caches. Ignored for scheduler types without an anytime
	// budget.
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

// Config shapes a Compiler (and hence a Pipeline).
type Config struct {
	// Noise is the scheduler's characterization input. When nil the
	// device's ground truth is extracted at Threshold (memoized per
	// calibration — see GroundTruthNoise).
	Noise *core.NoiseData
	// Threshold is the high-crosstalk detection ratio used when Noise is
	// nil (default 3, the paper's setting).
	Threshold float64
	// Omega is the crosstalk weight factor for the default scheduler. The
	// zero value means the paper default 0.5; pass a negative value for
	// the true omega=0 (decoherence-only) ablation. Ignored when Scheduler
	// is set.
	Omega float64
	// Budget is the per-schedule anytime SMT budget for the default
	// scheduler (0 = run to optimality). Ignored when Scheduler is set.
	Budget time.Duration
	// Partition routes the default scheduler through the conflict-
	// partitioned engine: each circuit's crosstalk conflict graph is split
	// into independent components and bounded windows, every window solved
	// as its own small SMT instance over the engine's solve pool (so
	// batch compilation overlaps windows across circuits), and the
	// per-window schedules stitched back with barrier-respecting offsets.
	// Ignored when Scheduler is set.
	Partition bool
	// WindowGates caps the two-qubit gates per window SMT instance when
	// Partition or Portfolio is on (0 = core.DefaultMaxWindowGates).
	WindowGates int
	// Portfolio races the partitioned SMT engine against the greedy
	// heuristic under the same Budget and keeps the lower-cost schedule
	// (implies Partition). Ignored when Scheduler is set.
	Portfolio bool
	// Scheduler overrides the default XtalkSched.
	Scheduler core.Scheduler
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
	// Certify runs the independent schedule certifier (internal/certify)
	// as a post-check of every schedule stage: precedence, exclusivity,
	// readout alignment and the objective cost are re-derived from the raw
	// device model, and any violation fails the compile. Always on under
	// `go test`; flag-gated (-certify) in the CLIs. Deliberately excluded
	// from artifact fingerprints — certification verifies an artifact, it
	// never changes one.
	Certify bool
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

// Pipeline is a Compiler plus cross-request statistics: per-stage
// wall-clock aggregates and accumulated solver effort across every request
// it has processed. Run/Batch delegate to the embedded engine and absorb
// each Result's request-local stats under a single short lock per item —
// the engine itself stays contention-free. All methods are safe for
// concurrent use once the pipeline is built, except Characterize (which
// swaps the engine and must not race Run/Batch).
type Pipeline struct {
	*Compiler

	mu    sync.Mutex
	stats map[string]*StageStats
	order []string // stage names in first-seen order, for stable reports
	solve core.SolveStats
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
	return &Pipeline{Compiler: NewCompiler(dev, cfg), stats: map[string]*StageStats{}}
}

// Characterize runs an SRB crosstalk-characterization campaign on the
// pipeline's device and installs the measured noise data as the scheduler
// input, replacing ground truth: the engine is swapped for one rebuilt over
// the measured data (see Compiler.WithNoise for how explicit schedulers are
// handled). highPairs seeds the HighCrosstalkOnly policy (from a previous
// full campaign). Not safe to call concurrently with Run/Batch.
func (p *Pipeline) Characterize(ctx context.Context, policy characterize.Policy, highPairs []device.EdgePair, cfg rb.Config) (*characterize.Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := characterize.Run(p.Dev, policy, highPairs, cfg)
	if err != nil {
		return nil, err
	}
	p.Compiler = p.Compiler.WithNoise(rep.NoiseData(p.Dev, p.cfg.Threshold))
	return rep, nil
}

// Run compiles one request through the stage stack and folds its
// request-local statistics into the pipeline aggregates. The returned
// Result always carries the request tag; Err records the first failing
// stage.
func (p *Pipeline) Run(ctx context.Context, req Request) *Result {
	res := p.Compiler.Compile(ctx, req)
	p.absorb(res)
	return res
}

// Batch compiles every request concurrently over a bounded worker pool
// (Config.Workers, default GOMAXPROCS) and returns results in request
// order, folding each item's statistics into the pipeline aggregates as it
// completes. Item failures are fail-soft: each Result carries its own Err
// and never aborts siblings. Canceling ctx aborts in-flight SMT searches
// within one conflict-check interval and marks all unstarted items with the
// context's error, so Batch returns promptly with partial results.
func (p *Pipeline) Batch(ctx context.Context, reqs []Request) []*Result {
	return p.Compiler.compileBatch(ctx, reqs, p.absorb)
}

// Artifact is Compiler.Artifact with pipeline aggregation: it compiles one
// request into an immutable CompiledArtifact and folds the compile's
// request-local statistics into the pipeline totals. It is the entry point
// the serving layer uses, so cached deployments still report accurate
// cumulative stage costs for the compiles that actually ran.
func (p *Pipeline) Artifact(ctx context.Context, req Request) (*CompiledArtifact, error) {
	return artifactVia(ctx, req, p.Compiler, p.Run)
}

// StageStats aggregates one stage's cost across every request a pipeline
// has processed.
type StageStats struct {
	Runs   int
	Errors int
	Total  time.Duration
	Max    time.Duration
}

// absorb folds one Result's request-local statistics into the pipeline
// aggregates: one short lock per request, instead of the per-stage
// serialization the engine used to pay before the Compiler split.
func (p *Pipeline) absorb(res *Result) {
	if res == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range res.Timings {
		s := p.stats[t.Stage]
		if s == nil {
			s = &StageStats{}
			p.stats[t.Stage] = s
			p.order = append(p.order, t.Stage)
		}
		s.Runs++
		s.Total += t.Elapsed
		if t.Elapsed > s.Max {
			s.Max = t.Elapsed
		}
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

// Stats returns a snapshot of the per-stage aggregates.
func (p *Pipeline) Stats() map[string]StageStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]StageStats, len(p.stats))
	for k, v := range p.stats {
		out[k] = *v
	}
	return out
}

// StatsString renders the per-stage aggregates as an aligned table, stages
// in execution order.
func (p *Pipeline) StatsString() string {
	p.mu.Lock()
	names := append([]string(nil), p.order...)
	stats := make([]StageStats, len(names))
	for i, n := range names {
		stats[i] = *p.stats[n]
	}
	solve := p.solve
	p.mu.Unlock()
	if len(names) == 0 {
		return "pipeline: no stages run\n"
	}
	var sb strings.Builder
	sb.WriteString("stage           runs  errs  total        max          mean\n")
	for i, n := range names {
		s := stats[i]
		mean := time.Duration(0)
		if s.Runs > 0 {
			mean = s.Total / time.Duration(s.Runs)
		}
		fmt.Fprintf(&sb, "%-14s  %4d  %4d  %-11v  %-11v  %v\n",
			n, s.Runs, s.Errors, s.Total.Round(time.Microsecond),
			s.Max.Round(time.Microsecond), mean.Round(time.Microsecond))
	}
	if solve.Windows > 0 {
		fmt.Fprintf(&sb, "solver: %s\n", solve)
	}
	return sb.String()
}
